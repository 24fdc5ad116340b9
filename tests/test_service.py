"""End-to-end tests for the crawl-as-a-service subsystem.

One module-scoped server hosts every test; one module-scoped campaign (the
standard 400-site test scale) backs the read-side assertions, with a direct
``ExperimentRunner`` run of the identical configuration as the ground truth:
the service must serve byte-identical detections and render every registered
offline metric identically to a local ``repro run``.
"""

import dataclasses
import http.client
import json
import os
import sys
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric, get_metric, metric_names
from repro.crawler.colstore import ColumnarStorage, campaign_store, export
from repro.crawler.storage import CrawlStorage, detection_to_dict
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.service import DetectionQuery, ServiceClient, ServiceClientError, running_server
from repro.service.api import MAX_BODY_BYTES
from repro.service.campaigns import CampaignManager, campaign_config_from_dict
from repro.service.store import DetectionStore, _jsonable
from repro.errors import ReproError, ServiceError, StorageError
from repro.models import HBFacet

CAMPAIGN_BODY = {"sites": 400, "days": 1, "seed": 7, "workers": 2, "backend": "process"}
CAMPAIGN_CONFIG = ExperimentConfig(
    total_sites=400, recrawl_days=1, seed=7, workers=2, crawl_backend="process"
)


def compact(value):
    """The bytes the service sends for ``value``: compact JSON."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def offline_metric_names():
    return [n for n in metric_names() if set(get_metric(n).requires) <= {"dataset"}]


def predicate(query):
    """The record filter ``query`` describes (pagination excluded)."""
    partner, facet, day = query.partner, query.facet, query.crawl_day
    rank_bin, bin_size, site, hb = query.rank_bin, query.bin_size, query.site, query.hb

    def keep(d):
        if hb is not None and d.hb_detected != hb:
            return False
        if partner is not None and partner not in d.partners:
            return False
        if facet is not None and d.facet is not facet:
            return False
        if day is not None and d.crawl_day != day:
            return False
        if rank_bin is not None and (d.rank - 1) // bin_size != rank_bin:
            return False
        if site is not None and site not in d.domain:
            return False
        return True

    return keep


def brute_force(query, detections):
    """Every record ``query`` matches, in order: the oracle for the store.

    Partner and facet filters only ever match HB detections.
    """
    if query.partner is not None or query.facet is not None:
        detections = [d for d in detections if d.hb_detected]
    keep = predicate(query)
    return [d for d in detections if keep(d)]


#: Filter sets the query tests compare against the oracle; ``PARTNER``
#: stands for the first partner of the campaign's first HB detection.
PARTNER = object()
QUERY_FILTERS = [
    {"hb": "true"},
    {"hb": "false"},
    {"crawl_day": 1},
    {"rank_bin": 0},
    {"rank_bin": 2, "bin_size": 50},
    {"site": "0"},
    {"partner": PARTNER, "crawl_day": 0},
    {"facet": "server-side", "rank_bin": 1, "bin_size": 150},
    {"hb": "false", "site": "1"},
    {"hb": "true", "offset": 10**6},
]


def resolve_filters(filters, detections):
    partner = next((d.partners[0] for d in detections if d.hb_detected), "nobody")
    return {k: str(partner if v is PARTNER else v) for k, v in filters.items()}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    with running_server(root, max_parallel=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.base_url)


@pytest.fixture(scope="module")
def campaign(client):
    """A finished test-scale campaign, shared by every read-side test."""
    submitted = client.submit(CAMPAIGN_BODY)
    done = client.wait(submitted["id"], timeout=300)
    assert done["state"] == "done", done
    return done


@pytest.fixture(scope="module")
def campaigns(client, campaign):
    """The shared campaign in each store format (identical detections)."""
    submitted = client.submit({**CAMPAIGN_BODY, "store_format": "columnar"})
    columnar = client.wait(submitted["id"], timeout=300)
    assert columnar["state"] == "done", columnar
    return {"jsonl": campaign, "columnar": columnar}


@pytest.fixture(scope="module")
def reference_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reference") / "crawl.jsonl"


@pytest.fixture(scope="module")
def reference(reference_path):
    """The same campaign run directly, exported to a local JSONL file."""
    artifacts = ExperimentRunner(CAMPAIGN_CONFIG).run(storage=CrawlStorage(reference_path))
    return reference_path.read_bytes(), artifacts.dataset


class TestSubmissionValidation:
    @pytest.mark.parametrize(
        "body",
        [
            {"sites": "not-a-number"},
            {"bogus_field": 1},
            {"checkpoint_path": "/tmp/x"},      # server-managed
            {"resume": True},                    # server-managed
            {"sites": 40, "total_sites": 50},    # alias + field collision
            {"sites": 3},                        # below the config floor
        ],
    )
    def test_bad_submission_is_4xx_json(self, client, body):
        with pytest.raises(ServiceClientError) as err:
            client.submit(body)
        assert err.value.status == 400
        assert set(err.value.body["error"]) == {"type", "message"}

    def test_removed_thread_backend_is_400_listing_backends(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit({"sites": 400, "backend": "thread"})
        assert err.value.status == 400
        error = err.value.body["error"]
        assert error["type"] == "ConfigurationError"
        assert "serial, process" in error["message"]

    def test_non_object_submission_is_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client._json("POST", "/campaigns", body=["not", "an", "object"])
        assert err.value.status == 400

    def test_non_json_body_is_400_not_traceback(self, server):
        request = urllib.request.Request(
            server.base_url + "/campaigns", data=b"this is not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        with err.value:  # an error response still holds its socket
            assert err.value.code == 400
            assert "error" in json.loads(err.value.read().decode("utf-8"))

    def test_unknown_campaign_is_404(self, client):
        for call in (client.campaign, client.cancel, client.resume,
                     lambda cid: client.detections(cid), lambda cid: client.artifact(cid, "table1")):
            with pytest.raises(ServiceClientError) as err:
                call("c9999-aaaaaa")
            assert err.value.status == 404

    def test_unknown_route_is_404_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.base_url + "/not-a-route")
        with err.value:
            assert err.value.code == 404
            assert "error" in json.loads(err.value.read().decode("utf-8"))

    def test_unknown_metric_is_404(self, client, campaign):
        with pytest.raises(ServiceClientError) as err:
            client.artifact(campaign["id"], "figNaN")
        assert err.value.status == 404

    def test_bad_filters_are_400(self, client, campaign):
        for params in ({"facet": "wat"}, {"limit": 10_000}, {"crawl_day": "x"},
                       {"nope": 1}, {"offset": -1}, {"hb": "maybe"}):
            with pytest.raises(ServiceClientError) as err:
                client.detections(campaign["id"], **params)
            assert err.value.status == 400

    def test_config_alias_parsing(self):
        config = campaign_config_from_dict(
            {"sites": 50, "days": 2, "backend": "process", "flush_every": 3, "oversubscribe": 2}
        )
        assert (config.total_sites, config.recrawl_days) == (50, 2)
        assert (config.crawl_backend, config.sink_flush_every, config.shard_oversubscribe) == (
            "process", 3, 2,
        )
        with pytest.raises(ServiceError):
            campaign_config_from_dict({"historical_years": "2019"})


class TestRequestBodies:
    """``Content-Length`` is checked before a byte of a POST body is read."""

    @staticmethod
    def post(server, path, length, body=b""):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Length", length)
            conn.endheaders(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-1", "+5", "1.5", "0x10", "1 2"])
    @pytest.mark.parametrize("route", ["campaigns", "ticks"])
    def test_malformed_or_negative_length_is_400(self, server, campaign, route, length):
        # "-1" used to reach ``rfile.read(-1)`` and block until the client
        # hung up; the 30 s client timeout would fail this test.
        path = "/campaigns" if route == "campaigns" else f"/campaigns/{campaign['id']}/ticks"
        status, body = self.post(server, path, length)
        assert status == 400, body
        assert body["error"]["type"] == "ServiceError"
        assert "Content-Length" in body["error"]["message"]

    @pytest.mark.parametrize("route", ["campaigns", "ticks"])
    def test_oversized_length_is_413_without_reading(self, server, campaign, route):
        path = "/campaigns" if route == "campaigns" else f"/campaigns/{campaign['id']}/ticks"
        # No body byte is ever sent: a handler that tried to read it would
        # block until the client's 30 s timeout.
        for length in (MAX_BODY_BYTES + 1, 10**12):
            status, body = self.post(server, path, str(length))
            assert status == 413, body
            assert body["error"]["type"] == "RequestTooLargeError"

    def test_body_at_the_limit_is_read(self, server):
        padded = b'{"bogus_field": 1}'.ljust(MAX_BODY_BYTES)
        status, body = self.post(server, "/campaigns", str(len(padded)), padded)
        assert status == 400, body
        assert "bogus_field" in body["error"]["message"]


class TestRoundTrip:
    def test_served_detections_byte_identical_to_direct_run(self, client, campaign, reference):
        ref_bytes, _ = reference
        assert client.download(campaign["id"]) == ref_bytes

    def test_every_offline_metric_matches_direct_run(self, client, campaign, reference):
        _, ref_dataset = reference
        context = AnalysisContext.offline(ref_dataset)
        for name in offline_metric_names():
            expected = compute_metric(name, context)
            served = client.artifact(campaign["id"], name)
            assert served["text"] == expected.text, name
            assert served["name"] == name
            # the text format is exactly what ``repro analyze`` prints
            assert client.artifact_text(campaign["id"], name) == expected.text + "\n", name

    def test_campaign_record_counters(self, client, campaign, reference, reference_path):
        _, ref_dataset = reference
        info = client.campaign(campaign["id"])
        assert info["state"] == "done" and info["error"] is None
        assert info["runs"] == 1
        # The sink is the .hbc working store the JSONL file is exported from.
        working = reference_path.with_name(reference_path.name + ".hbc")
        assert info["detections"]["sink_bytes"] == working.stat().st_size
        assert info["detections"]["indexed"] == len(ref_dataset)
        assert info["resumable"]  # the finished checkpoint file remains

    def test_index_lists_campaign_and_artifacts(self, client, campaign):
        index = client.index()
        assert index["campaigns"][campaign["id"]] == "done"
        assert "table1" in index["artifacts"] and "detections.jsonl" in index["artifacts"]
        listed = {c["id"]: c["state"] for c in client.campaigns()}
        assert listed[campaign["id"]] == "done"


class TestDetectionQueries:
    def test_pagination_walks_everything_in_order(self, client, campaign, reference):
        _, ref_dataset = reference
        served = list(client.iter_detections(campaign["id"], page_size=97))
        assert [d["domain"] for d in served] == [d.domain for d in ref_dataset.detections]

    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    @pytest.mark.parametrize("filters", QUERY_FILTERS)
    def test_filters_match_brute_force(self, client, campaigns, reference, filters, store_format):
        _, ref_dataset = reference
        params = resolve_filters(filters, ref_dataset.detections)
        query = DetectionQuery.from_params(params)
        expected = [d.domain for d in brute_force(query, ref_dataset.detections)]
        page = client.detections(campaigns[store_format]["id"], **{"limit": 500, **params})
        assert page["total"] == len(expected)
        assert [d["domain"] for d in page["items"]] == expected[query.offset : query.offset + 500]

    def test_partner_and_facet_filters(self, client, campaign, reference):
        _, ref_dataset = reference
        hb = ref_dataset.hb_detections()
        partner = hb[0].partners[0]
        facet = hb[0].facet
        by_partner = client.detections(campaign["id"], partner=partner, limit=500)
        assert by_partner["total"] == sum(1 for d in hb if partner in d.partners)
        assert by_partner["filters"] == {"partner": partner}
        by_facet = client.detections(campaign["id"], facet=facet.value, limit=500)
        assert by_facet["total"] == sum(1 for d in hb if d.facet is facet)
        assert all(item["facet"] == facet.value for item in by_facet["items"])

    def test_offset_beyond_total_is_empty_page(self, client, campaign):
        page = client.detections(campaign["id"], offset=10**6)
        assert page["count"] == 0 and page["items"] == []

    def test_responses_are_compact_json(self, server, campaign):
        url = f"{server.base_url}/campaigns/{campaign['id']}/detections?limit=3"
        with urllib.request.urlopen(url) as response:
            body = response.read().decode("utf-8")
        assert body == json.dumps(json.loads(body), separators=(",", ":")) + "\n"

    def test_one_keep_alive_connection_serves_many_requests(self, server, client, campaign):
        host, port = server.server_address[:2]
        cid = campaign["id"]
        table1 = client.artifact(cid, "table1")
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for i in range(20):
                if i % 4 == 3:
                    path, expected = f"/campaigns/{cid}/artifacts/table1", table1
                else:
                    path = f"/campaigns/{cid}/detections?limit=5&offset={5 * i}"
                    expected = client.detections(cid, limit=5, offset=5 * i)
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200, body
                assert not response.will_close
                assert json.loads(body) == expected
        finally:
            connection.close()

    def test_fig12_serves_the_ecdf_as_data(self, client, campaign, reference):
        _, ref_dataset = reference

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        raw = client.download(campaign["id"], "fig12")
        served = json.loads(raw, parse_constant=reject)
        expected = compute_metric("fig12", AnalysisContext.offline(ref_dataset)).data["ecdf"]
        assert served["data"]["ecdf"]["values"] == list(expected.values)
        assert served["data"]["ecdf"]["probabilities"] == list(expected.probabilities)


class TestStoreColumns:
    """The store's column view against the oracle while its sink grows."""

    @staticmethod
    def assert_matches_oracle(store, detections):
        for filters in QUERY_FILTERS + [{}, {"offset": 7, "limit": 5}]:
            query = DetectionQuery.from_params(resolve_filters(filters, detections))
            expected = brute_force(query, detections)
            page = store.query(query)
            assert page["total"] == len(expected), filters
            served = expected[query.offset : query.offset + query.limit]
            # Each item is the record's compact JSON encoding, which decodes
            # to exactly its dict form.
            assert [json.loads(item) for item in page["items"]] == [
                detection_to_dict(d) for d in served
            ], filters
            assert page["items"] == [compact(detection_to_dict(d)) for d in served], filters

    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_refresh_extends_and_reset_rebuilds(self, reference, tmp_path, store_format):
        _, ref_dataset = reference
        records = list(ref_dataset.detections)
        # A non-HB record naming the filtered partner and facet: partner and
        # facet filters must still skip it.
        first_hb = next(d for d in records if d.hb_detected)
        non_hb = next(i for i, d in enumerate(records) if not d.hb_detected and i > 100)
        records[non_hb] = dataclasses.replace(
            records[non_hb], partners=first_hb.partners, facet=HBFacet.SERVER_SIDE
        )
        cuts = [0, 37, 38, 200, 411, len(records)]
        path = tmp_path / ("crawl.hbc" if store_format == "columnar" else "crawl.jsonl")
        storage = campaign_store(path, store_format)
        store = DetectionStore(storage.path)
        with storage.open_sink(flush_every=10**6) as sink:
            for start, end in zip(cuts, cuts[1:]):
                sink.write_many(records[start:end])
                sink.flush()
                assert store.refresh() == end - start
                self.assert_matches_oracle(store, records[:end])
        store.refresh()
        assert store.drained() and store.count == len(records)

        # A truncating rewrite: the refresh that notices it drops every
        # column and reads the new content from byte zero in the same call.
        restarts = store.restarts
        storage.save(records[:50])
        assert store.refresh() == 50
        assert store.restarts == restarts + 1
        assert store.count == 50
        self.assert_matches_oracle(store, records[:50])
        assert store.refresh() == 0 and store.drained()

        # A deleted store reads as empty until it is written again.
        storage.path.unlink()
        assert store.refresh() == 0
        assert store.count == 0 and store.restarts == restarts + 2

    def test_appends_to_a_closed_store_continue_without_a_restart(self, reference, tmp_path):
        """Each append reopens and closes the store, as a daemon tick does;
        the store absorbs only the appended records and never restarts."""
        _, ref_dataset = reference
        records = list(ref_dataset.detections)
        storage = ColumnarStorage(tmp_path / "crawl.hbc")
        storage.save(records[:150])
        store = DetectionStore(storage.path)
        assert store.refresh() == 150
        for start, end in [(150, 151), (151, 300), (300, len(records))]:
            storage.append(records[start:end])
            assert store.refresh() == end - start
            assert store.drained() and store.count == end
        assert store.restarts == 0
        self.assert_matches_oracle(store, records)

    def test_a_jsonl_path_is_refused_with_its_working_store_named(self, tmp_path):
        with pytest.raises(StorageError, match=r"crawl\.jsonl\.hbc"):
            DetectionStore(tmp_path / "crawl.jsonl")


class TestServedBytes:
    """Every served body equals the compact JSON of its dict form while the
    campaign's sink grows, restarts and is read concurrently.

    The sink is grown by atomically publishing byte snapshots taken after
    each flush of a real sink, so a read sees exactly one of the prefixes
    ``CUTS`` names and the oracle is known for each of them.
    """

    CUTS = [0, 37, 38, 200, 411]

    @staticmethod
    def fetch(url):
        try:
            with urllib.request.urlopen(url, timeout=60) as response:
                return response.read()
        except urllib.error.HTTPError as err:
            with err:
                return err.read()

    @staticmethod
    def expected_page(params, detections):
        query = DetectionQuery.from_params(params)
        matched = brute_force(query, detections)
        page = matched[query.offset : query.offset + query.limit]
        envelope = {
            "total": len(matched),
            "offset": query.offset,
            "limit": query.limit,
            "count": len(page),
            "filters": query.describe(),
            "items": [detection_to_dict(d) for d in page],
        }
        return compact(envelope) + b"\n"

    @staticmethod
    def expected_artifact(cid, name, fmt, detections):
        context = AnalysisContext.offline(CrawlDataset.from_detections(detections, label=cid))
        try:
            result = compute_metric(name, context)
        except ReproError as exc:
            return compact({"error": {"type": type(exc).__name__, "message": str(exc)}}) + b"\n"
        if fmt == "text":
            return result.text.encode("utf-8") + b"\n"
        payload = {
            "campaign": cid,
            "name": result.name,
            "title": result.title,
            "ref": result.ref,
            "params": _jsonable(result.params),
            "data": _jsonable(result.data),
            "text": result.text,
        }
        return compact(payload) + b"\n"

    @pytest.fixture(params=["jsonl", "columnar"])
    def rig(self, request, client, server, reference, tmp_path):
        """A finished campaign whose sink the test rewrites, the sink's byte
        snapshots after each flush of ``records`` at ``CUTS`` (plus the
        end), and the oracle of every checked URL over a record list."""
        store_format = request.param
        submitted = client.submit({"sites": 40, "days": 1, "seed": 4, "store_format": store_format})
        done = client.wait(submitted["id"], timeout=300)
        assert done["state"] == "done", done
        campaign = server.manager.get(submitted["id"])
        records = list(reference[1].detections)
        cuts = self.CUTS + [len(records)]
        build = tmp_path / "build.hbc"
        snapshots = {0: b""}
        with ColumnarStorage(build).open_sink(flush_every=10**6) as sink:
            for start, end in zip(cuts, cuts[1:]):
                sink.write_many(records[start:end])
                sink.flush()
                snapshots[end] = build.read_bytes()

        working = campaign.store.storage.path  # what the store tails

        def publish(data):
            staged = working.with_name("staged")
            staged.write_bytes(data)
            os.replace(staged, working)

        base = f"{server.base_url}/campaigns/{campaign.id}"
        queries = [resolve_filters(f, records)
                   for f in QUERY_FILTERS + [{}, {"offset": 7, "limit": 5}, {"limit": 500}]]

        def expected(detections):
            # Artifacts first: a test reading in this order meets a
            # restarted store on an artifact read.
            bodies = {}
            for name in offline_metric_names():
                for fmt in ("json", "text"):
                    bodies[f"{base}/artifacts/{name}?format={fmt}"] = self.expected_artifact(
                        campaign.id, name, fmt, detections
                    )
            for params in queries:
                bodies[f"{base}/detections?{urllib.parse.urlencode(params)}"] = (
                    self.expected_page(params, detections)
                )
            return bodies

        # Start from an empty sink: the store restarts once and is empty.
        publish(b"")
        campaign.store.refresh()
        assert campaign.store.count == 0
        return types.SimpleNamespace(
            campaign=campaign, records=records, snapshots=snapshots,
            publish=publish, expected=expected, base=base,
        )

    def test_growing_sink_serves_the_oracle_bytes(self, rig):
        previous = None
        for end, data in rig.snapshots.items():
            rig.publish(data)
            expected = rig.expected(rig.records[:end])
            for url, body in expected.items():
                # The second read of a generation is served from the memos.
                assert self.fetch(url) == body == self.fetch(url), (end, url)
            assert rig.campaign.store.count == end
            # The sink grew, so a body fetched before is wrong after.
            table1 = expected[f"{rig.base}/artifacts/table1?format=json"]
            assert table1 != previous
            previous = table1

    def test_restarted_sink_serves_no_stale_record_or_body(self, rig):
        store, records = rig.campaign.store, rig.records
        rig.publish(rig.snapshots[len(records)])
        before = rig.expected(records)
        for url, body in before.items():
            assert self.fetch(url) == body, url
        generation = store.generation
        # A shorter sink holding other records: every memoised encoding and
        # body of the longer one is wrong for it.
        others = records[200:260]
        ColumnarStorage(rig.campaign.store.storage.path).save(others)
        after = rig.expected(others)
        # The read that finds the sink shrunk restarts the store and serves
        # the new records at once.
        for url in after:
            assert self.fetch(url) == after[url], url
        assert store.restarts >= 1 and store.generation > generation
        store.refresh()
        assert store.drained() and store.count == len(others)
        for url, body in after.items():
            assert self.fetch(url) == body, url
        table1 = f"{rig.base}/artifacts/table1?format=text"
        assert after[table1] != before[table1]

    def test_concurrent_readers_during_refresh_see_one_prefix(self, rig):
        urls = [f"{rig.base}/detections?limit=500"]
        urls += [f"{rig.base}/artifacts/{name}?format={fmt}"
                 for name in ("table1", "fig12") for fmt in ("json", "text")]
        oracles = [rig.expected(rig.records[:end]) for end in rig.snapshots]
        seen, errors = [], []
        stop = threading.Event()

        def reader(first):
            try:
                index = first
                while not stop.is_set():
                    url = urls[index % len(urls)]
                    seen.append((url, self.fetch(url)))
                    index += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        try:
            for data in rig.snapshots.values():
                rig.publish(data)
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors and seen
        for url, body in seen:
            assert any(body == oracle[url] for oracle in oracles), url
        # Once the sink stops growing, every read serves the full campaign.
        for url in urls:
            assert self.fetch(url) == oracles[-1][url], url


class TestEvents:
    def test_stream_final_snapshot_equals_analyze(self, client, tmp_path):
        """The acceptance invariant: the SSE stream's last metric snapshot is
        exactly what ``repro analyze`` computes over the finished sink."""
        submitted = client.submit({"sites": 60, "days": 1, "seed": 13})
        tail = client.stream_to_completion(
            submitted["id"], artifacts=("table1", "adoption"), interval=0.05
        )
        assert tail["state"]["state"] == "done"
        sink = tmp_path / "served.jsonl"
        sink.write_bytes(client.download(submitted["id"]))
        context = AnalysisContext.offline(CrawlDataset.from_jsonl(sink))
        assert tail["metrics"]["final"] is True
        for name in ("table1", "adoption"):
            assert tail["metrics"]["artifacts"][name] == compute_metric(name, context).text
        counts = [p["detections"] for p in tail["progress"]]
        assert counts == sorted(counts)
        assert counts[-1] == tail["metrics"]["detections"]

    def test_stream_unknown_artifact_is_404(self, client, campaign):
        with pytest.raises(ServiceClientError) as err:
            list(client.events(campaign["id"], artifacts=("nope",)))
        assert err.value.status == 404


class TestCancellation:
    @pytest.mark.parametrize("store_format", ["jsonl", "columnar"])
    def test_cancel_then_resume_is_byte_identical(self, client, tmp_path, store_format):
        body = {"sites": 400, "days": 2, "seed": 11, "workers": 2,
                "flush_every": 1, "checkpoint_every_shards": 1,
                "store_format": store_format}
        sink_name = "detections.hbc" if store_format == "columnar" else "detections.jsonl"
        submitted = client.submit(body)
        cid = submitted["id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            info = client.campaign(cid)
            if info["detections"]["sink_bytes"] > 0:
                break
            time.sleep(0.01)
        client.cancel(cid)
        cancelled = client.wait(cid, timeout=60)
        assert cancelled["state"] == "cancelled"
        assert cancelled["resumable"], "cancellation must leave a resumable checkpoint"
        partial = client.download(cid, sink_name)

        client.resume(cid)
        done = client.wait(cid, timeout=300)
        assert done["state"] == "done" and done["runs"] == 2

        # The oracle: a direct JSONL sink over an uninterrupted run, or the
        # .hbc store such a run streams.
        path = tmp_path / f"uninterrupted-{sink_name}"
        runner = ExperimentRunner(campaign_config_from_dict(body))
        if store_format == "jsonl":
            CrawlStorage(path).save(runner.run().longitudinal.all_detections)
        else:
            runner.run(storage=ColumnarStorage(path))
        full = path.read_bytes()
        assert client.download(cid, sink_name) == full
        # What the cancelled run handed out is a non-empty proper prefix of
        # the records.  A cancelled columnar store's closing flush writes a
        # short last chunk that the resumed run rewrites, so it is compared
        # as exported JSONL.
        def as_jsonl(data, name):
            if store_format == "jsonl":
                return data
            src = tmp_path / f"{name}.hbc"
            src.write_bytes(data)
            export(src, tmp_path / f"{name}.jsonl", "jsonl")
            return (tmp_path / f"{name}.jsonl").read_bytes()

        head, whole = as_jsonl(partial, "partial"), as_jsonl(full, "full")
        assert 0 < len(head) < len(whole) and whole.startswith(head)

    def test_cancel_terminal_campaign_is_409(self, client, campaign):
        with pytest.raises(ServiceClientError) as err:
            client.cancel(campaign["id"])
        assert err.value.status == 409

    def test_resume_done_campaign_is_409(self, client, campaign):
        with pytest.raises(ServiceClientError) as err:
            client.resume(campaign["id"])
        assert err.value.status == 409


class TestCampaignManager:
    def test_queued_campaign_cancels_without_running(self, tmp_path):
        manager = CampaignManager(tmp_path, max_parallel=1)
        try:
            blocker = manager.submit(ExperimentConfig(total_sites=400, recrawl_days=2, seed=3))
            queued = manager.submit(ExperimentConfig(total_sites=40, seed=4))
            manager.cancel(queued.id)
            manager.wait(queued.id, timeout=30)
            assert queued.state == "cancelled"
            assert queued.runs == 0 and queued.started_at is None
            assert not queued.checkpoint_path.exists()
            manager.cancel(blocker.id)
            manager.wait(blocker.id, timeout=60)
        finally:
            manager.shutdown(timeout=60)

    def test_queued_campaigns_start_in_submission_order(self, tmp_path):
        manager = CampaignManager(tmp_path, max_parallel=1)
        try:
            blocker = manager.submit(ExperimentConfig(total_sites=400, recrawl_days=2, seed=3))
            queued = [manager.submit(ExperimentConfig(total_sites=40, seed=seed))
                      for seed in (4, 5, 6, 7)]
            manager.cancel(blocker.id)
            for campaign in queued:
                manager.wait(campaign.id, timeout=120)
            assert [c.state for c in queued] == ["done"] * len(queued)
            assert [c.runs for c in queued] == [1] * len(queued)
            # One slot: each campaign starts only after the one queued
            # before it has finished.
            for earlier, later in zip(queued, queued[1:]):
                assert earlier.finished_at <= later.started_at
            assert blocker.state == "cancelled" and blocker.finished_at <= queued[0].started_at
        finally:
            manager.shutdown(timeout=60)

    def test_cancelled_before_checkpoint_resumes_fresh(self, tmp_path):
        manager = CampaignManager(tmp_path, max_parallel=1)
        try:
            blocker = manager.submit(ExperimentConfig(total_sites=400, recrawl_days=2, seed=3))
            queued = manager.submit(ExperimentConfig(total_sites=40, seed=4))
            manager.cancel(queued.id)
            manager.wait(queued.id, timeout=30)
            manager.cancel(blocker.id)
            manager.wait(blocker.id, timeout=60)
            resumed = manager.resume(queued.id)
            manager.wait(resumed.id, timeout=120)
            assert resumed.state == "done"
        finally:
            manager.shutdown(timeout=60)

    def test_shutdown_cancels_in_flight_and_rejects_submissions(self, tmp_path):
        manager = CampaignManager(tmp_path, max_parallel=1)
        campaign = manager.submit(
            ExperimentConfig(
                total_sites=400, recrawl_days=2, seed=5,
                sink_flush_every=1, checkpoint_every_shards=1,
            )
        )
        deadline = time.monotonic() + 60
        while campaign.store.storage.size() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        manager.shutdown(timeout=60)
        assert campaign.state == "cancelled"
        assert campaign.checkpoint_path.exists()
        with pytest.raises(ServiceError):
            manager.submit(ExperimentConfig(total_sites=40))
        with pytest.raises(ServiceError):
            manager.resume(campaign.id)

    def test_concurrent_reads_during_crawl_are_consistent(self, tmp_path):
        """Hammer the store from reader threads while the campaign crawls."""
        manager = CampaignManager(tmp_path, max_parallel=1)
        try:
            campaign = manager.submit(
                ExperimentConfig(total_sites=400, recrawl_days=1, seed=6, sink_flush_every=1)
            )
            errors = []
            stop = threading.Event()

            def reader():
                queries = [DetectionQuery(limit=50), DetectionQuery(hb=True, limit=50)]
                totals = [0, 0]
                try:
                    while not stop.is_set():
                        campaign.store.refresh()
                        for which, query in enumerate(queries):
                            page = campaign.store.query(query)
                            assert page["count"] <= 50
                            # The sink only grows, so a total never shrinks.
                            assert page["total"] >= totals[which]
                            totals[which] = page["total"]
                            if query.hb:
                                assert all(json.loads(item)["hb_detected"] for item in page["items"])
                        campaign.to_dict()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=reader) for _ in range(4)]
                for t in threads:
                    t.start()
                manager.wait(campaign.id, timeout=300)
                stop.set()
                for t in threads:
                    t.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert campaign.state == "done"
            campaign.store.refresh()
            assert campaign.store.drained()
            records = CrawlStorage(campaign.sink_path).load()
            assert campaign.store.count == len(records)
            query = DetectionQuery(hb=True, limit=50)
            assert campaign.store.query(query)["total"] == len(brute_force(query, records))
        finally:
            manager.shutdown(timeout=60)


class TestTicks:
    """POST /campaigns/{id}/ticks — daemon ticks through the service."""

    # An absolute floor no simulated day reaches: every tick alerts.
    FLOOR = "table1.summary.websites_with_hb:min=100000"

    def test_tick_extends_campaign_and_streams_the_alert(self, client):
        submitted = client.submit({"sites": 60, "days": 1, "seed": 13})
        cid = submitted["id"]
        client.wait(cid, timeout=300)

        ticked = client.tick(cid, thresholds=[self.FLOOR])
        assert ticked["tick_day"] == 2
        assert ticked["state"] in ("queued", "running")
        tail = client.stream_to_completion(cid, interval=0.05)
        assert tail["state"]["state"] == "done"
        assert tail["state"]["config"]["recrawl_days"] == 2
        assert tail["state"]["alerts"] == 1
        assert len(tail["alerts"]) == 1
        alert = tail["alerts"][0]
        assert alert["campaign"] == cid
        assert alert["day"] == 2 and alert["kind"] == "min"

        # A second stream replays the logged alert exactly once.
        replay = client.stream_to_completion(cid, interval=0.05)
        assert len(replay["alerts"]) == 1

        # The grown sink equals a one-shot two-day run of the same campaign.
        done = client.wait(cid, timeout=300)
        assert done["runs"] == 2
        config = campaign_config_from_dict({"sites": 60, "days": 2, "seed": 13})
        path_free_bytes = client.download(cid)
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "oneshot.jsonl"
            ExperimentRunner(config).run(storage=CrawlStorage(path))
            assert path_free_bytes == path.read_bytes()

    def test_tick_while_running_is_409(self, client):
        submitted = client.submit({"sites": 400, "days": 2, "seed": 21, "workers": 2})
        cid = submitted["id"]
        with pytest.raises(ServiceClientError) as err:
            client.tick(cid)
        assert err.value.status == 409
        client.wait(cid, timeout=300)

    def test_tick_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.tick("nope")
        assert err.value.status == 404

    def test_tick_with_unknown_body_key_is_400(self, client, campaign, server):
        body = json.dumps({"bogus": 1}).encode()
        request = urllib.request.Request(
            f"{server.base_url}/campaigns/{campaign['id']}/ticks",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        with err.value:
            assert err.value.code == 400

    def test_tick_with_malformed_threshold_is_400(self, client, campaign):
        with pytest.raises(ServiceClientError) as err:
            client.tick(campaign["id"], thresholds=["not-a-rule"])
        assert err.value.status == 400


class TestKeepalive:
    def test_idle_stream_carries_keepalive_comments(self, tmp_path):
        """A queued campaign emits nothing, so the stream must heartbeat."""
        with running_server(tmp_path / "ka", max_parallel=1) as srv:
            ka_client = ServiceClient(srv.base_url)
            blocker = ka_client.submit({"sites": 4000, "days": 2, "seed": 3})
            queued = ka_client.submit({"sites": 40, "days": 1, "seed": 4})
            url = (
                f"{srv.base_url}/campaigns/{queued['id']}/events"
                f"?interval=0.05&keepalive=0.05&timeout=0.5"
            )
            with urllib.request.urlopen(url, timeout=30) as response:
                raw = response.read()
            assert b": keepalive\n\n" in raw
            assert b"event: timeout" in raw
            for cid in (blocker["id"], queued["id"]):
                try:
                    ka_client.cancel(cid)
                except ServiceClientError:
                    pass  # already finished

    def test_keepalive_comments_are_invisible_to_the_parser(self, client):
        """ServiceClient.events yields only real events on a keepalive-dense stream."""
        submitted = client.submit({"sites": 60, "days": 1, "seed": 17})
        events = list(
            client.events(submitted["id"], interval=0.05, keepalive=0.02)
        )
        kinds = {event for event, _ in events}
        assert kinds <= {"refresh", "progress", "metrics", "state", "alert"}
        assert events[-1][0] == "state"
