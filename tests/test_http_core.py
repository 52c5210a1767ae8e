"""The HTTP core shared by the compile server and the cluster gateway.

Edge handling that lives once in :class:`~repro.server.http.JsonHandler`
is asserted on both servers, and the gateway's structured fleet sample is
checked against the shards' own ``/metrics/sample`` payloads.
"""

import http.client
import json
import time

import pytest

from repro.cluster import ClusterGateway
from repro.server import CompileClient, CompileServer
from repro.service import make_job
from repro.workloads.generators import ghz


def _job(n: int, seed: int | None = None):
    return make_job(ghz(n), "ibm_q20_tokyo", "codar", seed=seed)


def _monitor_off():
    """Never self-ticks (huge interval); tests drive ticks explicitly."""
    return {"interval_s": 3600.0, "windows": (10.0, 30.0, 60.0),
            "for_s": 0.0, "resolve_s": 0.0, "tenant_slos": True}


def _breach(shard: CompileServer) -> None:
    """Force shard-local alert transitions with synthetic failed jobs."""
    shard.monitor.tick()
    for index in range(10):
        shard.metrics.observe_job(0.01, 0.02, ok=False, cache_hit=False,
                                  trace_id=f"fail{index}", tenant="alice")
    shard.monitor.recorder.clock = lambda: 9e9  # jump time forward
    shard.monitor.alerts.clock = lambda: 9e9
    shard.monitor.tick()


@pytest.fixture(params=["server", "gateway"])
def front(request):
    """A shard with recorded alert events, reached directly or via a gateway."""
    with CompileServer(port=0, workers=1, monitor=_monitor_off()) as shard:
        _breach(shard)
        if request.param == "server":
            yield shard
        else:
            with ClusterGateway([shard.url], health_interval=30.0,
                                monitor=_monitor_off()) as gateway:
                yield gateway


class TestSharedEdge:
    def test_malformed_content_length_is_400_and_closes(self, front):
        host, port = front.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            reply = connection.getresponse()
            assert reply.status == 400
            assert reply.headers.get("Connection") == "close"
            assert "Content-Length" in json.loads(reply.read())["error"]
        finally:
            connection.close()

    def test_negative_limit_is_clamped_to_zero(self, front):
        client = CompileClient(front.url, retries=0)
        assert len(client.alerts(limit=100)["events"]) >= 3
        # A negative slice would drop only the oldest event; the shared
        # query helper clamps it so every endpoint returns nothing.
        assert client.alerts(limit=-1)["events"] == []
        assert client.traces(limit=-1)["traces"] == []


TRACE_ID = "0" * 31 + "1"


def _post_job(address, job, trace: str) -> http.client.HTTPResponse:
    host, port = address
    body = json.dumps(job.to_dict()).encode()
    connection = http.client.HTTPConnection(host, port, timeout=10)
    connection.request("POST", "/jobs", body=body,
                       headers={"Content-Type": "application/json",
                                "X-Repro-Trace": trace})
    reply = connection.getresponse()
    reply.read()
    connection.close()
    return reply


@pytest.mark.parametrize("via_gateway", [False, True])
def test_reply_headers_on_admission_and_on_429(via_gateway):
    with CompileServer(port=0, workers=1, max_depth=1) as tiny:
        tiny.scheduler.pause()
        time.sleep(0.2)  # sleep-ok: let in-pop workers settle behind the pause gate
        with ClusterGateway([tiny.url], health_interval=30.0,
                            monitor=False) as gateway:
            target = gateway if via_gateway else tiny
            header = f"{TRACE_ID}-{'0' * 15}2"
            admitted = _post_job(target.address, _job(3), header)
            full = _post_job(target.address, _job(4), header)
            tiny.scheduler.resume()
    assert admitted.status == 202 and full.status == 429
    assert full.headers.get("Retry-After") == "1"
    # The caller's trace is continued and echoed back.
    assert admitted.headers.get("X-Repro-Trace", "").startswith(TRACE_ID)
    shard = "shard0" if via_gateway else None
    assert admitted.headers.get("X-Repro-Shard") == shard
    assert full.headers.get("X-Repro-Shard") == shard


class TestFleetSample:
    def test_fleet_sample_is_the_sum_of_shard_samples(self):
        with CompileServer(port=0, workers=1, monitor=False) as shard_a, \
                CompileServer(port=0, workers=1, monitor=False) as shard_b:
            with ClusterGateway([shard_a.url, shard_b.url],
                                health_interval=30.0,
                                monitor=False) as gateway:
                client = CompileClient(gateway.url, tenant="alice")
                for seed in range(4):
                    assert client.compile(_job(3, seed=seed)).ok
                parts = [CompileClient(shard.url).metrics_sample()
                         for shard in (shard_a, shard_b)]
                fleet = client.metrics_sample()
        for name in ("submitted", "completed", "failed"):
            assert fleet["counters"][name] == sum(
                part["counters"][name] for part in parts)
        assert fleet["counters"]["completed"] == 4
        assert fleet["tenants"]["alice"]["counters"]["completed"] == sum(
            part["tenants"]["alice"]["counters"]["completed"]
            for part in parts if "alice" in part["tenants"])
        for family in ("stage_runs", "stage_seconds", "backend_jobs"):
            for name, value in fleet[family].items():
                assert value == pytest.approx(sum(
                    part[family].get(name, 0) for part in parts))
        for name, data in fleet["histograms"].items():
            assert data["count"] == sum(
                part["histograms"][name]["count"] for part in parts)
            assert data["buckets"] == [
                [bound, sum(part["histograms"][name]["buckets"][index][1]
                            for part in parts)]
                for index, (bound, _) in enumerate(data["buckets"])]
        # Topology and the gateway's own counters ride along.
        assert fleet["gauges"]["shards_total"] == 2.0
        assert fleet["counters"]["gateway_failovers"] == 0.0
