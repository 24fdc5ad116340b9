"""Batch seeding of the population and the page compile.

``generate_population`` and ``SiteProfileTable.precompile`` seed their
``("publisher", rank)`` and ``("page", domain)`` streams in one vectorized
pass and replace ``Generator.choice(p=...)`` with CDF picks.  Both results are
shared by the reference and the columnar simulator, so the
reference-vs-columnar oracles cannot see a drift in either:
``TestPinnedBytes`` pins them to digests recorded before they were
batch-seeded, and the parity tests hold each helper of ``repro.utils.rng`` to
the numpy call it replaces, values and stream state both.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.utils.rng as rng_module
from repro.browser.page import batch_page_draws, build_page, page_draws
from repro.crawler.storage import CrawlStorage
from repro.ecosystem.profiles import SiteProfileTable
from repro.ecosystem.publishers import (
    _SIZE_TABLES,
    _SIZE_WEIGHTS,
    PopulationConfig,
    _Tables,
    generate_population,
)
from repro.ecosystem.registry import default_registry
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.utils.rng import (
    _activator,
    _cdf,
    _key_entropy,
    _pick,
    _seed_states,
    _swr,
    derive_rng,
)

#: sha256 of the canonical JSONL sink of ``ExperimentConfig.test_scale(seed=s)``.
CAMPAIGN_SHA256 = {
    1: "a9be4eab208dd08570d52f13a04feaf00bd32b52eb159bd54de135a196682946",
    2: "d9144e2f0ca3daf432d8ace99388ebedcc9a89a809919d07fe26499b8c619506",
}

#: sha256 of ``repr(list(population))`` for a 3,000-site population.
POPULATION_SHA256 = {
    1: "545d56b36b64caa32d79d370a5e2e6ce86e6aad9f36232c78b4de7f5fe7171fe",
    2: "a5252c12906e9800abd09a2101e762dec7020273ffb595d6782b42e114a1f19a",
    3: "1eae90fd8e1b78d7940ce783031b2a3d27326f361e4e74008da3732a6dc63f1b",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("seed", sorted(CAMPAIGN_SHA256))
    def test_campaign_sink_bytes(self, seed, tmp_path):
        storage = CrawlStorage(tmp_path / "campaign.jsonl")
        ExperimentRunner(ExperimentConfig.test_scale(seed=seed)).run(storage=storage)
        digest = hashlib.sha256(storage.path.read_bytes()).hexdigest()
        assert digest == CAMPAIGN_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(POPULATION_SHA256))
    def test_population_repr(self, seed):
        population = generate_population(PopulationConfig(seed=seed).scaled(3_000))
        digest = hashlib.sha256(repr(list(population)).encode()).hexdigest()
        assert digest == POPULATION_SHA256[seed]


# ---------------------------------------------------------------------------
# Parity of the seeding helpers


def random_keys(count, seed):
    """Key tuples of one to four parts: ints of any sign and size, and strings."""
    chooser = random.Random(seed)

    def part():
        kind = chooser.randrange(4)
        if kind == 0:
            return chooser.randrange(-(2**70), 2**70)
        if kind == 1:
            return chooser.randrange(0, 40_000)
        if kind == 2:
            return f"site-{chooser.randrange(10**6):06d}.example"
        return "".join(chooser.choice("abcé-._ 0") for _ in range(chooser.randrange(0, 12)))

    return [tuple(part() for _ in range(chooser.randrange(1, 5))) for _ in range(count)]


class TestSeedStates:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 2019, 2**32 + 5, 2**63 - 1])
    def test_equal_derive_rng_for_any_key(self, seed):
        keys = random_keys(300, seed) + [("publisher", 1), ("page", "site-000001.example")]
        hi, lo, inc_hi, inc_lo = (a.tolist() for a in _seed_states(seed, _key_entropy(keys)))
        for i, key in enumerate(keys):
            state = derive_rng(seed, *key).bit_generator.state["state"]
            assert state["state"] == (hi[i] << 64) | lo[i], key
            assert state["inc"] == (inc_hi[i] << 64) | inc_lo[i], key

    def test_numpy_ints_are_other_keys(self):
        """``stable_hash`` hashes ``repr``: a numpy rank seeds another stream."""
        assert _key_entropy([("publisher", 1)]) != _key_entropy([("publisher", np.int64(1))])

    def test_activated_generator_draws_as_a_fresh_one(self):
        keys = random_keys(50, 11)
        states = _seed_states(7, _key_entropy(keys))
        activate = _activator()
        for key, state in zip(keys, zip(*(a.tolist() for a in states))):
            gen = activate(*state)
            fresh = derive_rng(7, *key)
            assert gen.lognormal(1.0, 0.5, 3).tolist() == fresh.lognormal(1.0, 0.5, 3).tolist()
            assert int(gen.integers(3, 7)) == int(fresh.integers(3, 7))
            assert gen.random() == fresh.random()
            assert gen.bit_generator.state == fresh.bit_generator.state


# ---------------------------------------------------------------------------
# Parity of the CDF picks


def assert_pick_matches_choice(weights, draws=300, seed=0):
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    cdf = _cdf(weights)[1]
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert int(a.choice(len(p), p=p)) == _pick(b, cdf)
    assert a.bit_generator.state == b.bit_generator.state


def assert_swr_matches_choice(weights, size, draws=100, seed=0):
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    p_list, cdf = _cdf(weights)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        expected = a.choice(len(p), size=size, replace=False, p=p)
        assert list(expected) == _swr(b, p_list, cdf, size)
    assert a.bit_generator.state == b.bit_generator.state


def random_weights(seed):
    chooser = np.random.default_rng(seed)
    n = int(chooser.integers(1, 41))
    weights = chooser.random(n) * chooser.choice([1.0, 100.0, 1e-3])
    weights[chooser.random(n) < 0.3] = 0.0
    if not weights.any():
        weights[int(chooser.integers(0, n))] = 0.5
    return weights.tolist()


class TestCdfPicks:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_weights_with_zeros(self, seed):
        weights = random_weights(seed)
        assert_pick_matches_choice(weights, seed=seed)
        nonzero = sum(1 for w in weights if w > 0)
        for size in sorted({1, min(2, nonzero), nonzero}):
            assert_swr_matches_choice(weights, size, draws=40, seed=seed)

    @pytest.mark.parametrize("facet", sorted(_SIZE_WEIGHTS, key=lambda f: f.value))
    def test_size_tables(self, facet):
        weights = _SIZE_WEIGHTS[facet]
        sizes, cdf = _SIZE_TABLES[facet]
        assert [size.label for size in sizes] == list(weights)
        assert cdf == _cdf(list(weights.values()))[1]
        assert_pick_matches_choice(list(weights.values()), seed=3)

    @pytest.mark.parametrize(
        "name", ["facet_shares", "wrapper_shares", "partner_count_distribution"]
    )
    def test_share_tables(self, name):
        shares = getattr(PopulationConfig(), name)
        tables = _Tables(PopulationConfig(), default_registry(seed=1))
        table = {
            "facet_shares": tables.facets,
            "wrapper_shares": tables.wrappers,
            "partner_count_distribution": tables.partner_counts,
        }[name]
        weights = [weight for _, weight in shares]
        assert table == ([value for value, _ in shares], _cdf(weights)[1])
        assert_pick_matches_choice(weights, seed=5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_registry_partner_pools(self, seed):
        registry = default_registry(seed=seed)
        tables = _Tables(PopulationConfig(seed=seed), registry)
        for partners, p_list, cdf in (tables.capable, tables.others):
            weights = [partner.popularity_weight for partner in partners]
            assert (p_list, cdf) == _cdf(weights)
            assert_pick_matches_choice(weights, seed=seed)
            for size in (1, 2, 5, 19):
                assert_swr_matches_choice(weights, min(size, len(weights)), draws=60, seed=seed)


# ---------------------------------------------------------------------------
# Batch page draws


class TestBatchPageDraws:
    def test_equal_the_derived_page(self, small_population):
        publishers = list(small_population)
        batch = batch_page_draws(publishers, 13)
        for publisher, draws in zip(publishers, batch):
            assert draws == page_draws(derive_rng(13, "page", publisher.domain), publisher)
            page = build_page(publisher, seed=13)
            assert draws == (
                page.header_script_urls,
                page.html_fetch_ms,
                page.content_load_ms,
                len(page.baseline_resources),
            )

    def test_site_evicted_within_its_batch_recompiles_the_same(
        self, small_population, environment, detector
    ):
        publishers = list(small_population)[:12]
        table = SiteProfileTable(environment, detector.known_partners, seed=13, max_sites=4)
        table.precompile(publishers[:4])
        # Compiling publishers[4:] evicts records the batch reaches later.
        records = table.precompile(publishers[4:] + publishers[:4])
        assert table.compiles > 12
        for record, publisher in zip(records, publishers[4:] + publishers[:4]):
            page = build_page(publisher, seed=13)
            assert record.publisher is publisher
            assert (record.html_fetch_ms, record.content_load_ms) == (
                page.html_fetch_ms,
                page.content_load_ms,
            )
            assert (record.n_res, record.n_scr) == (
                len(page.baseline_resources),
                len(page.header_script_urls),
            )


# ---------------------------------------------------------------------------
# derive_rng calls of a cold campaign


class TestDeriveRngCalls:
    def test_cold_campaign_derives_no_generator_per_site(self, monkeypatch):
        """A cold campaign builds the registry's long-tail partners and the
        known-partner list with ``derive_rng``; every per-site stream
        (publisher, page, visit) is batch-seeded."""
        real = rng_module.derive_rng
        calls: list[str] = []

        def spy(seed, *keys):
            calls.append(keys[0])
            return real(seed, *keys)

        for module in list(sys.modules.values()):
            if getattr(module, "derive_rng", None) is real:
                monkeypatch.setattr(module, "derive_rng", spy)
        counts = []
        for sites in (400, 800):
            calls.clear()
            config = replace(ExperimentConfig.test_scale(), total_sites=sites)
            ExperimentRunner(config).run()
            counts.append(Counter(calls))
        assert counts[0] == counts[1] == {"long-tail-partner": 32, "known-partner-list": 1}
