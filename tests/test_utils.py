"""Unit tests for the cross-cutting helpers in repro.utils."""

import pytest

from repro.utils.ids import IdFactory, slugify
from repro.utils.rng import derive_rng, stable_hash
from repro.utils.urls import build_url, parse_query, url_host, url_path


class TestRng:
    def test_derive_rng_is_deterministic(self):
        a = derive_rng(7, "partners", "criteo")
        b = derive_rng(7, "partners", "criteo")
        assert a.random() == b.random()

    def test_derive_rng_differs_across_keys(self):
        a = derive_rng(7, "partners", "criteo")
        b = derive_rng(7, "partners", "rubicon")
        assert a.random() != b.random()

    def test_derive_rng_differs_across_seeds(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()

    def test_stable_hash_is_stable(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)


class TestUrls:
    def test_build_url_with_params(self):
        url = build_url("ib.adnxs.com", "/ut/v3", {"bidder": "appnexus", "n": 2})
        assert url == "https://ib.adnxs.com/ut/v3?bidder=appnexus&n=2"

    def test_build_url_normalises_missing_slash(self):
        assert build_url("a.example", "path") == "https://a.example/path"

    def test_build_url_requires_host(self):
        with pytest.raises(ValueError):
            build_url("", "/x")

    def test_parse_query_round_trips(self):
        url = build_url("x.example", "/p", {"a": "1", "b": "two"})
        assert parse_query(url) == {"a": "1", "b": "two"}

    def test_parse_query_keeps_blank_values(self):
        assert parse_query("https://x.example/p?a=&b=1") == {"a": "", "b": "1"}

    def test_url_host_lowercases(self):
        assert url_host("https://CDN.Example.com/x") == "cdn.example.com"

    def test_url_path_defaults_to_root(self):
        assert url_path("https://x.example") == "/"
        assert url_path("https://x.example/a/b?q=1") == "/a/b"


class TestIds:
    def test_slugify_collapses_non_alphanumerics(self):
        assert slugify("Index Exchange") == "index-exchange"
        assert slugify("EMX Digital!") == "emx-digital"

    def test_slugify_never_returns_empty(self):
        assert slugify("!!!") == "x"

    def test_id_factory_counts_per_namespace(self):
        ids = IdFactory()
        assert ids.next("auction") == "auction-000000"
        assert ids.next("auction") == "auction-000001"
        assert ids.next("bid") == "bid-000000"

    def test_id_factory_prefix_and_reset(self):
        ids = IdFactory(prefix="run1")
        assert ids.next("auction").startswith("run1-auction-")
        ids.reset()
        assert ids.next("auction") == "run1-auction-000000"
