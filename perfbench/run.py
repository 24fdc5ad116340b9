"""End-to-end benchmark of the header-bidding crawl reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``campaign``       a cold serial 20k-site campaign with a JSONL sink;
* ``daemon``         recrawl-daemon ticks on a 10k-site columnar campaign
                     crawled by a 2-worker process pool;
* ``service_reads``  a closed loop of 2 client connections reading a
                     finished 10k-site campaign from ``hbrepro serve``.

``--seconds`` sizes the measured phase — recrawl days, ticks or reads —
from fixed per-unit costs of a 2-CPU reference host, so a given value
always does the same work.  ``--trace 0`` prints the end-to-end metrics of
untraced runs; ``--trace 1`` runs the measured phase untraced and then
traced, prints the per-layer metrics and writes a Chrome trace to
``.perfbench/traces/``.  The last line of standard output is the result
object; the lines before it carry the details (every sample count, the
sink hash, the per-layer self-time table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer, chrome_trace, format_layer_table, layer_table, load_dump  # noqa: E402

#: End-to-end metric -> unit, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Set-up-only cold starts timed per run for ``setup_s``, before and after
#: the measured phase (spread in time, so one slow stretch of the host does
#: not move them all).  The measured unit's own cold start is one more
#: sample; service_reads times every server it starts.
SETUP_SAMPLES = {"campaign": (1, 1), "daemon": (1, 1), "service_reads": (3, 0)}
#: Fresh ``import repro.cli`` probes per traced run.
IMPORT_PROBES = 3
#: Per-unit costs on the 2-CPU reference host, used only to turn
#: ``--seconds`` into a fixed amount of work.
RECRAWL_DAYS_PER_S = 0.6
TICKS_PER_S = 0.5
READS_PER_S = 110
#: Site counts at ``--scale 1``.  20k is above SiteProfileTable's 16,384-site
#: cap on purpose (the paper crawls 35k sites).
CAMPAIGN_SITES = 20_000
DAEMON_SITES = 10_000
SERVICE_SITES = 10_000
SERVICE_DAYS = 2
SERVICE_CLIENTS = 2
#: Artifacts the read mix requests, and the rank-bin width of its filters.
READ_ARTIFACTS = ("table1", "fig12", "fig09", "facet")
RANK_BIN_SIZE = 500
PAGE_LIMIT = 50
CHILD_TIMEOUT = 170.0
WARMUP_SITES = 300


class BenchError(Exception):
    """The program under test misbehaved (not a failed output check)."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """State of one benchmark invocation: work dir, children, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed = args.seed
        self.dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(self.dir / "tmp"),
            "PYTHONHASHSEED": str(args.seed),
        })
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.checks: list[tuple[str, bool]] = []
        self.details: dict = {}
        self.procs: list[subprocess.Popen] = []

    def sites(self, full: int) -> int:
        return max(60, round(full * self.args.scale))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    # -- children ----------------------------------------------------------------
    def spawn(self, role: str, *argv: str) -> subprocess.Popen:
        with open(self.dir / f"child-{len(self.procs)}-{role}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), role, *argv],
                stdout=subprocess.PIPE, stderr=log, text=True, env=self.env, cwd=ROOT,
            )
        self.procs.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> dict:
        """Wait for a child and parse its last stdout line."""
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child {proc.args[2]} timed out")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {proc.args[2]} exited {proc.returncode}")
        return json.loads(lines[-1])

    def until_ready(self, proc: subprocess.Popen, marker: str = "READY") -> str:
        """Block until the child prints a line starting with ``marker``."""
        while True:
            line = proc.stdout.readline()
            if not line:
                proc.wait(timeout=CHILD_TIMEOUT)
                raise BenchError(f"child {proc.args[2]} exited {proc.returncode} before {marker}")
            if line.startswith(marker):
                return line

    def timed_setup(self, role: str, *argv: str) -> tuple[float, subprocess.Popen]:
        start = time.perf_counter()
        proc = self.spawn(role, *argv)
        self.until_ready(proc)
        return time.perf_counter() - start, proc

    def import_probe(self) -> float:
        return _median([self.finish(self.spawn("import-probe"))["import_s"]
                        for _ in range(IMPORT_PROBES)])

    def sink_summary(self, sink: Path, *extra: str) -> dict:
        return self.finish(self.spawn("sink-summary", "--sink", str(sink), *extra))

    def close(self, *, keep: bool = False) -> None:
        """Stop every child still running, wait for it, drop the work dir."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        if not keep:
            shutil.rmtree(self.dir, ignore_errors=True)


def sample_setups(run: Run, measured, setup_only) -> tuple[list[float], dict]:
    """The measured unit, with set-up-only cold starts before and after it;
    the measured unit's own cold start is one more set-up sample."""
    before, after = SETUP_SAMPLES[run.args.workload]
    setups = [setup_only(i) for i in range(before)]
    setup, result = measured("measured")
    setups.append(setup)
    setups += [setup_only(before + i) for i in range(after)]
    return setups, result


def traced_pair(run: Run, measured) -> tuple[dict, float]:
    """The measured unit untraced, then traced: (traced result, overhead)."""
    _, plain = measured("plain")
    _, result = measured("traced", run.dir / "spans.json")
    return result, result["wall_s"] - plain["wall_s"]


# ---------------------------------------------------------------------------
# campaign


def campaign_workload(run: Run, traced: bool) -> dict:
    sites = run.sites(CAMPAIGN_SITES)
    days = max(1, round(run.args.seconds * RECRAWL_DAYS_PER_S))
    common = ("--sites", str(sites), "--days", str(days), "--seed", str(run.seed))
    # Untimed warm-up: bytecode compilation and page-cache fill.
    run.finish(run.spawn("campaign", "--sites", str(min(sites, WARMUP_SITES)), "--days", "1",
                         "--seed", str(run.seed), "--sink", str(run.dir / "warm.jsonl")))

    def measured(name: str, trace_out: Path | None = None) -> tuple[float, dict]:
        argv = [*common, "--sink", str(run.dir / f"{name}.jsonl")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        setup, proc = run.timed_setup("campaign", *argv)
        result = run.finish(proc)
        check_campaign(run, result, run.dir / f"{name}.jsonl", sites, days)
        return setup, result

    if traced:
        import_s = run.import_probe()
        result, overhead = traced_pair(run, measured)
        return traced_result(run, [load_dump(run.dir / "spans.json")], import_s, overhead,
                             result["pages"])

    def setup_only(index: int) -> float:
        setup, proc = run.timed_setup("campaign", *common, "--setup-only",
                                      "--sink", str(run.dir / f"setup-{index}.jsonl"))
        proc.communicate(timeout=CHILD_TIMEOUT)
        return setup

    setups, result = sample_setups(run, measured, setup_only)
    phases = result["phases"]
    recrawl = [p["s"] for p in phases[1:]]
    crawl_s = sum(p["s"] for p in phases)
    run.details.update({
        "sites": sites, "recrawl_days": days, "setup_samples_s": setups,
        "discovery_s": phases[0]["s"], "recrawl_day_s": recrawl,
        "recrawl_day_p50_s": _median(recrawl), "pages": result["pages"],
        "pages_per_s": result["pages"] / crawl_s,
    })
    return {
        "attempted": result["pages"],
        "failed_ops": sum(p["pages"] for p in phases if p["degraded"]),
        "metrics": {
            "setup_s": _median(setups),
            "wall_s": result["wall_s"],
            "throughput_per_s": result["pages"] / crawl_s,
            "peak_rss_mb": result["peak_rss_mb"],
        },
    }


def check_campaign(run: Run, result: dict, sink: Path, sites: int, days: int) -> None:
    summary = run.sink_summary(sink, "--metrics", "table1")
    phases = result["phases"]
    run.check("campaign.not_degraded", not result["degraded"])
    run.check("campaign.phases", len(phases) == days + 1 and phases[0]["pages"] == sites)
    run.check("campaign.pages_match",
              result["pages"] == sum(p["pages"] for p in phases) == result["detections"])
    run.check("campaign.sink_count",
              result["written"] == result["detections"] == summary["detections"])
    run.check("campaign.table1", result["table1"] == summary["metrics"]["table1"])
    key = f"campaign/{sites}/{days}/{run.seed}/{source_digest()}"
    run.check("campaign.sha256", record_sha(key, summary["sha256"]))
    run.details["sink_sha256"] = summary["sha256"]
    run.details["sink_bytes"] = summary["bytes"]


def source_digest() -> str:
    """Hash of the program's source, so sinks are only compared across runs
    of the same code (a change may legitimately change the bytes)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def record_sha(key: str, digest: str) -> bool:
    """Remember a sink's hash per seed; False if an earlier run disagrees."""
    registry_path = WORK / "sha256.json"
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    known = registry.setdefault(key, digest)
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, registry_path)
    return known == digest


# ---------------------------------------------------------------------------
# daemon


def daemon_workload(run: Run, traced: bool) -> dict:
    sites = run.sites(DAEMON_SITES)
    ticks = max(2, round(run.args.seconds * TICKS_PER_S))
    common = ("--sites", str(sites), "--seed", str(run.seed))
    run.finish(run.spawn("daemon", "--sites", str(min(sites, WARMUP_SITES)), "--ticks", "1",
                         "--seed", str(run.seed), "--workdir", str(run.dir / "warm")))

    def measured(name: str, trace_out: Path | None = None) -> tuple[float, dict]:
        argv = [*common, "--ticks", str(ticks), "--workdir", str(run.dir / name)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        setup, proc = run.timed_setup("daemon", *argv)
        result = run.finish(proc)
        check_daemon(run, result, ticks)
        return setup, result

    if traced:
        import_s = run.import_probe()
        result, overhead = traced_pair(run, measured)
        return traced_result(run, [load_dump(run.dir / "spans.json")], import_s, overhead,
                             len(result["ticks"]))

    def setup_only(index: int) -> float:
        workdir = run.dir / f"setup-{index}"
        setup, proc = run.timed_setup("daemon", *common, "--ticks", "0", "--setup-only",
                                      "--workdir", str(workdir))
        proc.communicate(timeout=CHILD_TIMEOUT)
        shutil.rmtree(workdir, ignore_errors=True)
        return setup

    setups, result = sample_setups(run, measured, setup_only)
    tick_s = [t["s"] for t in result["ticks"]]
    pages = sum(t["pages"] for t in result["ticks"])
    run.details.update({
        "sites": sites, "ticks": len(tick_s), "setup_samples_s": setups, "tick_s": tick_s,
        "tick_p50_s": _median(tick_s), "pages": pages, "pages_per_s": pages / sum(tick_s),
    })
    return {
        "attempted": len(tick_s),
        "failed_ops": sum(t["status"] != "advanced" for t in result["ticks"]),
        "metrics": {
            "setup_s": _median(setups),
            "wall_s": result["wall_s"],
            "throughput_per_s": pages / sum(tick_s),
            "peak_rss_mb": result["peak_rss_mb"],
        },
    }


def check_daemon(run: Run, result: dict, ticks: int) -> None:
    reports = result["ticks"]
    run.check("daemon.bootstrap", result["bootstrap"]["status"] == "bootstrapped")
    run.check("daemon.ticks_advanced",
              len(reports) == ticks
              and all(t["status"] == "advanced" and t["day"] == i + 1
                      for i, t in enumerate(reports)))
    run.check("daemon.no_supervision_events", result["supervision_events"] == 0)
    run.check("daemon.partitions", result["partitions"] == ticks + 1)
    run.check("daemon.partitions_sum_to_sink",
              result["partition_detections"] == result["sink_detections"]
              == reports[-1]["detections"])


# ---------------------------------------------------------------------------
# service_reads


class Server:
    """One ``hbrepro serve`` process with a finished campaign in it."""

    def __init__(self, run: Run, name: str, sites: int, trace_out: Path | None = None) -> None:
        from repro.service import ServiceClient

        self.run = run
        start = time.perf_counter()
        argv = ["--data-dir", str(run.dir / name)]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        self.proc = run.spawn("serve", *argv)
        try:
            self.url = run.until_ready(self.proc, "serving campaigns at").split()[3]
            client = ServiceClient(self.url, timeout=CHILD_TIMEOUT)
            submitted = client.submit({"sites": sites, "days": SERVICE_DAYS, "seed": run.seed})
            self.campaign = client.wait(submitted["id"], timeout=CHILD_TIMEOUT, interval=0.02)
            self.id = submitted["id"]
            self.total = client.detections(self.id, limit=PAGE_LIMIT)["total"]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> dict | None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.run.finish(self.proc)
        except BenchError:
            return None


def read_plan(run: Run, candidates: list[dict], count: int) -> list[list[dict]]:
    """Per connection, the seeded sequence of requests it issues."""
    plans = []
    for conn in range(SERVICE_CLIENTS):
        rng = random.Random(run.seed * 1009 + conn)
        plan = []
        for _ in range(count // SERVICE_CLIENTS):
            kind = rng.choice(("unfiltered", "hb", "partner", "crawl_day", "rank_bin", "artifact"))
            if kind == "artifact":
                plan.append({"artifact": rng.choice(READ_ARTIFACTS)})
                continue
            filt = rng.choice([c for c in candidates if c["kind"] == kind])
            plan.append({"filter": filt, "offset": rng.randrange(0, 4) * PAGE_LIMIT})
        plans.append(plan)
    return plans


def read_phase(server: Server, plans: list[list[dict]], tracer: Tracer | None) -> tuple[float, list]:
    """Closed loop: each connection sends its next request after the reply."""
    from repro.service import ServiceClient
    from repro.service.client import ServiceClientError

    outcomes: list[list] = [[] for _ in plans]
    prefix = f"/campaigns/{server.id}"

    def connection(index: int) -> None:
        client = ServiceClient(server.url, timeout=CHILD_TIMEOUT)
        for request in plans[index]:
            start = time.perf_counter()
            try:
                if "artifact" in request:
                    path = f"{prefix}/artifacts/{request['artifact']}"
                    body = client.artifact(server.id, request["artifact"])
                    seen = body["text"]
                else:
                    params = {k: v for k, v in request["filter"].items() if k != "kind"}
                    params.update(limit=PAGE_LIMIT, offset=request["offset"])
                    path = f"{prefix}/detections?{urlencode(params)}"
                    body = client.detections(server.id, **params)
                    seen = (body["total"], body["count"])
                ok = True
            except (ServiceClientError, OSError, ValueError, KeyError) as exc:
                seen, ok = repr(exc), False
            end = time.perf_counter()
            if tracer is not None:
                tracer.record("request", "client", start, end, path=path)
            outcomes[index].append((request, end - start, ok, seen))

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(len(plans))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise BenchError("read phase did not finish")
    return wall, [o for per in outcomes for o in per]


def check_reads(run: Run, outcomes: list, expected: dict) -> int:
    """Count responses that failed or disagree with the downloaded sink."""
    totals = {json.dumps(f, sort_keys=True): t
              for f, t in zip(expected["filters"], expected["totals"])}
    bad = 0
    for request, _, ok, seen in outcomes:
        if not ok:
            bad += 1
        elif "artifact" in request:
            bad += seen != expected["metrics"][request["artifact"]]
        else:
            total = totals[json.dumps(request["filter"], sort_keys=True)]
            bad += seen != (total, max(0, min(PAGE_LIMIT, total - request["offset"])))
    run.check("service.responses_ok_and_match_sink", bad == 0)
    return bad


def service_workload(run: Run, traced: bool) -> dict:
    sites = run.sites(SERVICE_SITES)
    reads = max(SERVICE_CLIENTS * 20, round(run.args.seconds * READS_PER_S))
    warm = Server(run, "warm", min(sites, WARMUP_SITES))
    warm.stop()

    def prepare(server: Server) -> tuple[list[list[dict]], dict]:
        expected = run.sink_summary(download(server), "--candidates", str(RANK_BIN_SIZE),
                                    "--metrics", *READ_ARTIFACTS)
        run.check("service.campaign_done", server.campaign["state"] == "done")
        run.check("service.sink_count", expected["detections"] == server.total)
        return read_plan(run, expected["filters"], reads), expected

    def download(server: Server) -> Path:
        from repro.service import ServiceClient

        sink = run.dir / f"{server.id}.jsonl"
        sink.write_bytes(ServiceClient(server.url, timeout=CHILD_TIMEOUT).download(server.id))
        return sink

    if traced:
        import_s = run.import_probe()
        plain = Server(run, "plain", sites)
        try:
            plans, expected = prepare(plain)
            plain_wall, outcomes = read_phase(plain, plans, None)
        finally:
            plain.stop()
        check_reads(run, outcomes, expected)
        tracer = Tracer()
        server_spans = run.dir / "server.spans.json"
        server = Server(run, "traced", sites, server_spans)
        try:
            plans, expected = prepare(server)
            tracer.active = True
            wall, outcomes = read_phase(server, plans, tracer)
            tracer.active = False
        finally:
            server.stop()
        check_reads(run, outcomes, expected)
        client_spans = run.dir / "client.spans.json"
        tracer.dump(client_spans, process="load-generator")
        return traced_result(run, [load_dump(server_spans), load_dump(client_spans)],
                             import_s, wall - plain_wall, len(outcomes))

    # Every cold-started server holds the same finished campaign, so each
    # serves one slice of the read loop right after its own set-up: the same
    # reads, spread over the whole run instead of one stretch of it.
    servers = sum(SETUP_SAMPLES["service_reads"])
    setups, walls, outcomes, stopped = [], [], [], []
    for index in range(servers):
        server = Server(run, f"serve-{index}", sites)
        try:
            setups.append(server.setup_s)
            if index == 0:
                plans, expected = prepare(server)
                first_sink = (run.dir / f"{server.id}.jsonl").read_bytes()
            else:
                run.check(f"service.same_sink.{index}", download(server).read_bytes() == first_sink)
            wall, done = read_phase(server, [p[index::servers] for p in plans], None)
            walls.append(wall)
            outcomes += done
        finally:
            stopped.append(server.stop())
    client_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = check_reads(run, outcomes, expected)
    run.check("service.server_exit", all(s is not None and s["exit"] == 0 for s in stopped))
    latencies = [o[1] for o in outcomes]
    wall = sum(walls)
    run.details.update({
        "sites": sites, "reads": len(outcomes), "connections": SERVICE_CLIENTS,
        "setup_samples_s": setups, "read_slices_s": walls, "reads_per_s": len(outcomes) / wall,
        "read_p50_ms": _median(latencies) * 1000.0,
        "read_p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "reads_beyond_p99": sum(1 for v in latencies if v > _percentile(latencies, 0.99)),
    })
    return {
        "attempted": len(outcomes),
        "failed_ops": bad,
        "metrics": {
            "setup_s": _median(setups),
            "wall_s": wall,
            "throughput_per_s": len(outcomes) / wall,
            "peak_rss_mb": max(s["peak_rss_mb"] for s in stopped if s) + client_peak,
        },
    }


# ---------------------------------------------------------------------------
# traced runs


def traced_result(run: Run, dumps: list[dict], import_s: float, overhead_s: float,
                  attempted: int) -> dict:
    values = layers.layer_metrics(dumps)
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = overhead_s
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    out = traces / f"{run.args.workload}-{run.seed}.trace.json"
    out.write_text(json.dumps(chrome_trace(dumps, metadata={
        "workload": run.args.workload, "seed": run.seed, "overhead_s": overhead_s})))
    print(format_layer_table(layer_table(dumps)))
    run.details.update({"chrome_trace": str(out.relative_to(ROOT)),
                        "tracing_overhead_s": overhead_s})
    return {"attempted": attempted, "failed_ops": 0,
            "metrics": {name: values[name] for name in layers.PER_LAYER}}


WORKLOADS = {
    "campaign": campaign_workload,
    "daemon": daemon_workload,
    "service_reads": service_workload,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the HB crawl reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every site count (the harness tests run tiny)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def _terminate(signum, frame):
        raise SystemExit(f"stopped by signal {signum}")

    # A terminated benchmark still stops and reaps every child it started.
    signal.signal(signal.SIGTERM, _terminate)
    run = Run(args)
    try:
        outcome = WORKLOADS[args.workload](run, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}; child logs kept in {run.dir}", file=sys.stderr)
        run.close(keep=True)
        return 1
    except BaseException:
        run.close(keep=True)
        raise
    failed_checks = [name for name, ok in run.checks if not ok]
    # A run whose outputs failed a check keeps its work dir for inspection.
    run.close(keep=bool(failed_checks))
    failed = outcome["failed_ops"] + len(failed_checks)
    run.details["checks"] = {name: ok for name, ok in run.checks}
    run.details["failed_frac"] = failed / outcome["attempted"]
    units = END_TO_END if not args.trace else layers.PER_LAYER
    print(json.dumps({"details": run.details}, sort_keys=True))
    print(json.dumps({
        "correct": not failed_checks and outcome["failed_ops"] == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
