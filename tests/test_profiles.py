"""Unit tests for precompiled site profiles and the columnar samplers over them.

Each precompiled sampler shortcuts a per-page derivation of the reference
simulator; these tests pin the contract that matters: given the same RNG
state, the precompiled sampler must produce the *same values* and leave the
*same stream state* as the model code it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecosystem.columnar import _compile_sim, _flat_respond, _respond_draws, _sample_internal, _swr
from repro.ecosystem.profiles import LatencyDraw, SiteProfileTable
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


class TestLatencyDraw:
    def test_matches_latency_model_sample(self, registry):
        for partner in registry.partners[:20]:
            for scale in (1.0, 0.72, 0.58, 0.35):
                draw = LatencyDraw.compile(partner.latency, scale)
                a, b = fresh_pair(seed=hash((partner.name, scale)) & 0xFFFF)
                for _ in range(200):
                    assert partner.latency.sample(a, scale=scale) == draw.sample(b)
                assert a.bit_generator.state == b.bit_generator.state


class TestPartnerProfile:
    def test_respond_draws_match_environment_partner_response(
        self, environment, small_population
    ):
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers()[:12]:
            profile = table.profile_for(publisher)
            slots = publisher.auctioned_slots
            for partner, pprofile in zip(publisher.partners, profile.partner_profiles):
                a, b = fresh_pair(seed=publisher.rank)
                for index, slot in enumerate(slots):
                    expected = environment.partner_response(
                        a, partner, slot, publisher.facet,
                        latency_scale=publisher.latency_scale,
                    )
                    latency, cpm = _respond_draws(b, _flat_respond(pprofile), index)
                    assert latency == expected.latency_ms
                    assert cpm == expected.bid_cpm
                    assert pprofile.partner is partner
                assert a.bit_generator.state == b.bit_generator.state

    def test_ad_server_latency_matches_environment_bitwise(
        self, environment, small_population
    ):
        """The compiled mu must use np.log exactly like the slow path.

        math.log and np.log disagree in the last ulp for some inputs, which
        is enough to shift a lognormal draw and break byte-identity.
        """
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers()[:8]:
            profile = table.profile_for(publisher)
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(100):
                expected = environment.ad_server_latency(
                    a, latency_scale=publisher.latency_scale
                )
                assert profile.ad_server_latency(b) == expected
            assert a.bit_generator.state == b.bit_generator.state

    def test_sample_internal_matches_environment(
        self, environment, small_population, detector
    ):
        table = SiteProfileTable(environment, seed=13)
        for publisher in small_population.hb_publishers():
            if publisher.facet is not HBFacet.SERVER_SIDE:
                continue
            sim = _compile_sim(table.profile_for(publisher), publisher, detector.known_partners)
            aggregator = publisher.partners[0]
            a, b = fresh_pair(seed=publisher.rank)
            for _ in range(40):
                expected = environment.sample_internal_bidders(a, exclude=(aggregator,))
                got = _sample_internal(b, sim.internal_rec)
                assert [p.name for p in expected] == [name for _, name, _ in got]
            assert a.bit_generator.state == b.bit_generator.state
            break
        else:
            pytest.skip("no server-side publisher in the sample population")


class TestSiteProfileTable:
    def test_page_matches_slow_build(self, environment, small_population):
        from repro.browser.page import build_page

        table = SiteProfileTable(environment, seed=13)
        for publisher in list(small_population)[:10]:
            profile = table.profile_for(publisher)
            assert profile.page == build_page(publisher, seed=13)

    def test_profiles_are_cached_per_domain(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13)
        publisher = list(small_population)[0]
        first = table.profile_for(publisher)
        assert table.profile_for(publisher) is first
        assert table.compiles == 1

    def test_table_recompiles_for_a_different_publisher_object(
        self, environment, small_population
    ):
        import dataclasses

        table = SiteProfileTable(environment, seed=13)
        publisher = next(p for p in small_population if not p.uses_hb)
        table.profile_for(publisher)
        changed = dataclasses.replace(publisher, latency_scale=publisher.latency_scale * 2)
        profile = table.profile_for(changed)
        assert profile.publisher is changed
        assert table.compiles == 2

    def test_bounded_eviction(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13, max_sites=8)
        for publisher in list(small_population)[:20]:
            table.profile_for(publisher)
        assert len(table) <= 8

    def test_precompile_batches_under_one_lock_acquisition(
        self, environment, small_population
    ):
        """Warming N fresh sites takes ONE lock acquisition, not N — and a
        fully warm batch takes zero.  This is the serialization fix the
        columnar path leans on at every shard start."""
        import threading

        class CountingLock:
            def __init__(self):
                self.inner = threading.Lock()
                self.acquisitions = 0

            def __enter__(self):
                self.acquisitions += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        table = SiteProfileTable(environment, seed=13)
        lock = CountingLock()
        table._lock = lock
        sites = list(small_population)[:24]
        table.precompile(sites)
        assert table.compiles == len(sites)
        # One acquisition publishes the whole batch; compiling also fills the
        # shared waterfall cache once per distinct non-HB latency scale.
        waterfall_fills = len({p.latency_scale for p in sites if not p.uses_hb})
        assert lock.acquisitions == 1 + waterfall_fills
        for publisher in sites:
            assert table.profile_for(publisher).publisher is publisher

        table.precompile(sites)  # warm: no compiles, no lock traffic
        assert table.compiles == len(sites)
        assert lock.acquisitions == 1 + waterfall_fills

    def test_precompile_respects_the_site_bound(self, environment, small_population):
        table = SiteProfileTable(environment, seed=13, max_sites=8)
        table.precompile(list(small_population)[:20])
        assert len(table) <= 8


class TestFastUniform:
    def test_matches_generator_uniform_exactly(self):
        from repro.utils.rng import fast_uniform

        for low, high in [(5.0, 40.0), (3.0, 20.0), (15.0, 45.0), (30.0, 150.0),
                          (0.005, 0.02), (0.02, 0.12), (20.0, 120.0)]:
            a, b = fresh_pair(seed=int(high))
            for _ in range(2000):
                assert float(a.uniform(low, high)) == fast_uniform(b, low, high)
            assert a.bit_generator.state == b.bit_generator.state
