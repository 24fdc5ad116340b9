"""End-to-end tests for the crawl-as-a-service subsystem.

One module-scoped server hosts every test; one module-scoped campaign (the
standard 400-site test scale) backs the read-side assertions, with a direct
``ExperimentRunner`` run of the identical configuration as the ground truth:
the service must serve byte-identical detections and render every registered
offline metric identically to a local ``repro run``.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.dataset import CrawlDataset
from repro.analysis.registry import compute_metric, get_metric, metric_names
from repro.crawler.storage import CrawlStorage
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.service import DetectionQuery, ServiceClient, ServiceClientError, running_server
from repro.service.campaigns import CampaignManager, campaign_config_from_dict
from repro.errors import ServiceError

CAMPAIGN_BODY = {"sites": 400, "days": 1, "seed": 7, "workers": 2, "backend": "process"}
CAMPAIGN_CONFIG = ExperimentConfig(
    total_sites=400, recrawl_days=1, seed=7, workers=2, crawl_backend="process"
)


def offline_metric_names():
    return [n for n in metric_names() if set(get_metric(n).requires) <= {"dataset"}]


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
def reference(tmp_path_factory):
    """The same campaign run directly, streamed to a local sink file."""
    path = tmp_path_factory.mktemp("reference") / "crawl.jsonl"
    artifacts = ExperimentRunner(CAMPAIGN_CONFIG).run(use_cache=False, storage=CrawlStorage(path))
    return path.read_bytes(), artifacts.dataset


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

    def test_campaign_record_counters(self, client, campaign, reference):
        ref_bytes, ref_dataset = reference
        info = client.campaign(campaign["id"])
        assert info["state"] == "done" and info["error"] is None
        assert info["runs"] == 1
        assert info["detections"]["sink_bytes"] == len(ref_bytes)
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

    @pytest.mark.parametrize(
        "filters",
        [
            {"hb": "true"},
            {"hb": "false"},
            {"crawl_day": 1},
            {"rank_bin": 0},
            {"rank_bin": 2, "bin_size": 50},
            {"site": "0"},
        ],
    )
    def test_filters_match_brute_force(self, client, campaign, reference, filters):
        _, ref_dataset = reference
        query = DetectionQuery.from_params({k: str(v) for k, v in filters.items()})
        keep = query.predicate()
        expected = [d.domain for d in ref_dataset.detections if keep(d)]
        page = client.detections(campaign["id"], limit=500, **filters)
        assert page["total"] == len(expected)
        assert [d["domain"] for d in page["items"]] == expected[:500]

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
    def test_cancel_then_resume_is_byte_identical(self, client, tmp_path):
        body = {"sites": 400, "days": 2, "seed": 11, "workers": 2,
                "flush_every": 1, "checkpoint_every_shards": 1}
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
        partial = client.download(cid)

        client.resume(cid)
        done = client.wait(cid, timeout=300)
        assert done["state"] == "done" and done["runs"] == 2

        path = tmp_path / "uninterrupted.jsonl"
        config = campaign_config_from_dict(body)
        ExperimentRunner(config).run(use_cache=False, storage=CrawlStorage(path))
        full = path.read_bytes()
        assert len(partial) < len(full)
        assert client.download(cid) == full

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
                query = DetectionQuery(limit=50)
                try:
                    while not stop.is_set():
                        campaign.store.refresh()
                        page = campaign.store.query(query)
                        assert page["count"] <= 50
                        campaign.to_dict()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            manager.wait(campaign.id, timeout=300)
            stop.set()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            assert campaign.state == "done"
            campaign.store.refresh()
            assert campaign.store.drained()
            assert campaign.store.count == len(CrawlStorage(campaign.sink_path).load())
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
            ExperimentRunner(config).run(use_cache=False, storage=CrawlStorage(path))
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
            raw = urllib.request.urlopen(url, timeout=30).read()
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
