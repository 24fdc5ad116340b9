"""Unit tests for compiled site records and the columnar samplers over them.

Each precompiled sampler shortcuts a per-page derivation of the reference
simulator; these tests pin the contract that matters: given the same RNG
state, the precompiled sampler must produce the *same values* and leave the
*same stream state* as the model code it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecosystem.columnar import _respond_draws, _sample_internal, _swr
from repro.ecosystem.profiles import SiteProfileTable, latency_sampler, sample_latency
from repro.models import HBFacet


def fresh_pair(seed=123):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestSampleWithoutReplacement:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [8, 9, 12, 83])
    def test_matches_generator_choice_exactly(self, size, n):
        """Values AND stream state agree with numpy for thousands of draws.

        This is the guard that makes the replica safe: if a numpy upgrade
        changes ``Generator.choice``'s draw algorithm, this test fails loudly
        instead of the columnar simulator silently diverging from the
        reference one.
        """
        weights = np.random.default_rng(n * size).random(n) + 0.01
        p = weights / weights.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        a, b = fresh_pair(seed=n * 31 + size)
        for _ in range(400):
            expected = a.choice(n, size=size, replace=False, p=p)
            got = _swr(b, p.tolist(), cdf.tolist(), size)
            assert list(expected) == list(got)
        assert a.bit_generator.state == b.bit_generator.state

    def test_collision_heavy_distribution(self):
        """A near-degenerate distribution forces the redraw loop constantly."""
        p = np.asarray([0.96, 0.01, 0.01, 0.01, 0.01])
        p = p / p.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        a, b = fresh_pair(seed=99)
        for _ in range(300):
            expected = a.choice(5, size=3, replace=False, p=p)
            got = _swr(b, p.tolist(), cdf.tolist(), 3)
            assert list(expected) == list(got)
        assert a.bit_generator.state == b.bit_generator.state


class TestLatencySampler:
    def test_matches_latency_model_sample(self, registry):
        for partner in registry.partners[:20]:
            for scale in (1.0, 0.72, 0.58, 0.35):
                sampler = latency_sampler(partner.latency, scale)
                a, b = fresh_pair(seed=hash((partner.name, scale)) & 0xFFFF)
                for _ in range(200):
                    assert partner.latency.sample(a, scale=scale) == sample_latency(b, sampler)
                assert a.bit_generator.state == b.bit_generator.state


def compiled_responses(record, publisher, environment):
    """``(partner, respond)`` for every partner response a record compiles:
    the dispatched bid requests and the internal-auction candidate pool,
    whose entries are force-compiled here (pages compile only those drawn)."""
    pairs = []
    if record.facet is not HBFacet.SERVER_SIDE:
        codes = [rec[0] for rec in record.client_recs]
        dispatched = [p for p in publisher.partners if p.bidder_code in codes]
        assert [p.bidder_code for p in dispatched] == codes
        pairs += zip(dispatched, (rec[1] for rec in record.client_recs))
    if record.facet is not HBFacet.CLIENT_SIDE:
        by_name = {p.name: p for p in environment.registry.partners}
        entries, compile_entry = record.internal_rec[2], record.internal_rec[5]
        for index, entry in enumerate(entries):
            if entry is None:
                entries[index] = compile_entry(index)
        for code, name, respond in entries:
            assert by_name[name].bidder_code == code
            pairs.append((by_name[name], respond))
    return pairs


class TestCompiledResponses:
    def test_respond_draws_match_environment_partner_response(
        self, environment, detector, small_population
    ):
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        for publisher in small_population.hb_publishers()[:12]:
            record = table.precompile([publisher])[0]
            slots = publisher.auctioned_slots
            pairs = compiled_responses(record, publisher, environment)
            assert pairs
            for partner, respond in pairs:
                a, b = fresh_pair(seed=publisher.rank)
                for index, slot in enumerate(slots):
                    expected = environment.partner_response(
                        a, partner, slot, publisher.facet,
                        latency_scale=publisher.latency_scale,
                    )
                    latency, cpm = _respond_draws(b, respond, index)
                    assert latency == expected.latency_ms
                    assert cpm == expected.bid_cpm
                assert a.bit_generator.state == b.bit_generator.state

    def test_ad_server_latency_matches_environment_bitwise(
        self, environment, detector, small_population
    ):
        """The compiled mu must use np.log exactly like the slow path.

        math.log and np.log disagree in the last ulp for some inputs, which
        is enough to shift a lognormal draw and break byte-identity.
        """
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        for publisher in small_population.hb_publishers()[:8]:
            record = table.precompile([publisher])[0]
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(100):
                expected = environment.ad_server_latency(
                    a, latency_scale=publisher.latency_scale
                )
                assert sample_latency(b, record.ad_server_latency) == expected
            assert a.bit_generator.state == b.bit_generator.state

    def test_sample_internal_matches_environment(
        self, environment, small_population, detector
    ):
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        for publisher in small_population.hb_publishers():
            if publisher.facet is not HBFacet.SERVER_SIDE:
                continue
            record = table.precompile([publisher])[0]
            aggregator = publisher.partners[0]
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(40):
                expected = environment.sample_internal_bidders(a, exclude=(aggregator,))
                got = _sample_internal(b, record.internal_rec)
                assert [p.name for p in expected] == [name for _, name, _ in got]
            assert a.bit_generator.state == b.bit_generator.state
            break
        else:
            pytest.skip("no server-side publisher in the sample population")


class TestSiteProfileTable:
    def test_page_inputs_match_slow_build(self, environment, detector, small_population):
        """Every page input a record keeps equals the reference page's."""
        from repro.browser.page import build_page

        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        publishers = list(small_population)[:10]
        assert any(p.uses_hb for p in publishers)
        for publisher, record in zip(publishers, table.precompile(publishers)):
            page = build_page(publisher, seed=13)
            assert record.html_fetch_ms == page.html_fetch_ms
            assert record.content_load_ms == page.content_load_ms
            assert record.n_res == len(page.baseline_resources)
            assert record.n_scr == len(page.header_script_urls)
            if publisher.uses_hb:
                assert record.page_url == page.url

    def test_records_are_cached_per_domain(self, environment, detector, small_population):
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        publisher = list(small_population)[0]
        first = table.precompile([publisher])[0]
        assert table.precompile([publisher])[0] is first
        assert table.compiles == 1

    def test_table_recompiles_for_a_different_publisher_object(
        self, environment, detector, small_population
    ):
        import dataclasses

        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        publisher = next(p for p in small_population if not p.uses_hb)
        table.precompile([publisher])
        changed = dataclasses.replace(publisher, latency_scale=publisher.latency_scale * 2)
        record = table.precompile([changed])[0]
        assert record.publisher is changed
        assert table.compiles == 2

    def test_bounded_eviction(self, environment, detector, small_population):
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=8)
        for publisher in list(small_population)[:20]:
            table.precompile([publisher])
        assert len(table) <= 8

    def test_precompile_compiles_each_missing_site_once(
        self, environment, detector, small_population
    ):
        """A cold batch of N sites adds exactly N compiles, a warm repeat
        adds none, and both return the batch's records in order."""
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        sites = list(small_population)[:24]
        records = table.precompile(sites)
        assert table.compiles == len(sites)
        assert [record.publisher for record in records] == sites
        assert all(record.publisher is publisher for record, publisher in zip(records, sites))

        warm = table.precompile(sites)
        assert table.compiles == len(sites)
        assert all(a is b for a, b in zip(warm, records))

    def test_precompile_respects_the_site_bound(self, environment, detector, small_population):
        """A batch larger than the table compiles each site once, returns
        every record, and leaves the table within its bound."""
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=8)
        sites = list(small_population)[:20]
        records = table.precompile(sites)
        assert len(table) <= 8
        assert table.compiles == len(sites)
        assert all(record.publisher is publisher for record, publisher in zip(records, sites))

    def test_eviction_keeps_hb_records_that_fit(self, environment, detector, small_population):
        """An 8-site table over 20 sites, 3 of them HB: evictions drop non-HB
        records only, so a recrawl of the HB sites compiles nothing."""
        hb = list(small_population.hb_publishers()[:3])
        plain = [p for p in small_population if not p.uses_hb][:17]
        sites = sorted(hb + plain, key=lambda p: p.rank)
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=8)
        records = table.precompile(sites)
        assert len(table) <= 8
        assert table.compiles == len(sites)
        recrawled = table.precompile(hb)
        assert table.compiles == len(sites)
        assert all(a is records[sites.index(p)] for a, p in zip(recrawled, hb))

    def test_eviction_falls_back_to_the_oldest_hb_records(
        self, environment, detector, small_population
    ):
        """When non-HB records cannot free half the table, the oldest HB
        records go next; the newest HB records stay."""
        hb = small_population.hb_publishers()[:7]
        plain = [p for p in small_population if not p.uses_hb][:2]
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=8)
        table.precompile([plain[0], hb[0], plain[1], *hb[1:6]])
        assert table.compiles == 8
        table.precompile([hb[6]])  # full: drops both non-HB and hb[0], hb[1]
        assert len(table) == 5
        table.precompile(hb[2:7])
        assert table.compiles == 9
        table.precompile([hb[0], hb[1], *plain])
        assert table.compiles == 13

    def test_one_site_table_stays_bounded(self, environment, detector, small_population):
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=1)
        table.precompile(list(small_population)[:3])
        assert len(table) == 1
        assert table.compiles == 3


class TestLazyPoolEntries:
    def test_pages_compile_exactly_the_entries_they_draw(
        self, environment, detector, small_population, monkeypatch
    ):
        """A fresh server-side or hybrid record holds no compiled pool entry;
        after a three-day crawl of its site, the compiled entries are exactly
        the candidates its pages drew."""
        from repro.crawler.crawler import CrawlConfig
        from repro.crawler.engine import CrawlShard, WorkerContext
        from repro.ecosystem import columnar

        sites = [
            p for p in small_population.hb_publishers()
            if p.facet is not HBFacet.CLIENT_SIDE
        ][:12]
        assert {p.facet for p in sites} == {HBFacet.SERVER_SIDE, HBFacet.HYBRID}
        table = SiteProfileTable(environment, detector.known_partners, seed=13)
        records = table.precompile(sites)
        pools = [record.internal_rec for record in records]
        assert all(entries and all(e is None for e in entries) for _, _, entries, *_ in pools)

        drawn: dict[int, set[int]] = {id(pool[4]): set() for pool in pools}
        swr = columnar._swr

        def recording_swr(gen, p_list, cdf_list, size):
            chosen = swr(gen, p_list, cdf_list, size)
            if id(cdf_list) in drawn:
                drawn[id(cdf_list)].update(chosen)
            return chosen

        monkeypatch.setattr(columnar, "_swr", recording_swr)
        context = WorkerContext(
            environment=environment, detector=detector, config=CrawlConfig(seed=13),
            profiles=table,
        )
        shard = CrawlShard(index=0, start=0, publishers=tuple(sites), shard_seed=0)
        for day in range(3):
            columnar.simulate_shard_columnar(context, day, None, shard)
        assert table.compiles == len(sites)
        assert any(drawn.values())
        for pool in pools:
            entries = pool[2]
            compiled = {i for i, entry in enumerate(entries) if entry is not None}
            assert compiled == drawn[id(pool[4])]
            assert len(compiled) < len(entries)


class TestFastUniform:
    def test_matches_generator_uniform_exactly(self):
        from repro.utils.rng import fast_uniform

        for low, high in [(5.0, 40.0), (3.0, 20.0), (15.0, 45.0), (30.0, 150.0),
                          (0.005, 0.02), (0.02, 0.12), (20.0, 120.0)]:
            a, b = fresh_pair(seed=int(high))
            for _ in range(2000):
                assert float(a.uniform(low, high)) == fast_uniform(b, low, high)
            assert a.bit_generator.state == b.bit_generator.state
