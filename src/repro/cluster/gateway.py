"""Shard-routing gateway: one HTTP front door over N compile servers.

The :class:`ClusterGateway` speaks the same JSON API as a single
:class:`~repro.server.http.CompileServer` — clients (including the existing
:class:`~repro.server.client.CompileClient`) point at the gateway URL and
nothing else changes:

* ``POST /jobs`` / ``POST /portfolio`` — the gateway parses the payload just
  far enough to compute the content-addressed job key, picks the owning shard
  from the :class:`~repro.cluster.ring.ShardRing` and proxies the request.
  Because placement is a pure function of the key, every duplicate of a spec
  lands on the same shard and coalesces there — per-shard coalescing is
  preserved by construction.
* ``GET /jobs/<key>`` / ``GET /results/<key>`` — proxied to the owning shard;
  a 404 falls through to the remaining members in preference order, so a
  ticket that failed over to a neighbour is still found.
* ``GET /metrics/sample`` — the fleet sample: every shard's structured
  ``/metrics/sample`` JSON summed leaf by leaf (counters, tenant counters,
  cumulative histogram buckets; the fixed-bucket design makes shard
  histograms mergeable by adding cumulative bucket counts).  A dead shard
  contributes its last-known values, and a restarted shard's monotone
  values are offset so merged counters never go backwards.
* ``GET /metrics`` — cluster-level Prometheus exposition: the gateway's own
  ``repro_cluster_shard_*`` counters plus the merged shard sample, rendered
  by the servers' renderer (:func:`~repro.server.metrics.render_prometheus`)
  so p50/p95 are recomputed from the merged buckets.
* ``GET /metrics/history`` / ``GET /slo`` / ``GET /alerts`` — the fleet
  monitoring layer: the gateway runs its own
  :class:`~repro.obs.monitor.Monitor` whose metrics source is the fleet
  sample, so rolling windows, SLO budgets and burn-rate alerts are
  computed over *fleet-level* cumulative series (merged counters difference
  exactly like a single shard's).  ``/alerts`` additionally fans out to
  every shard and merges their alert payloads, so shard-local alerts (which
  carry exemplar trace ids) surface at the cluster edge.
* ``GET /traces`` / ``GET /traces/<id>`` — digests and span trees stitched
  from the gateway and every shard.
* ``GET /healthz`` — gateway liveness plus per-shard health.

**Failover** is client-transparent: when a shard cannot be reached at all the
gateway ejects it (feeding the :class:`~repro.cluster.health.HealthMonitor`'s
hysteresis) and retries the next ring member, so the client sees one normal
reply.  HTTP-level errors (400/404/429/503) are *passed through* — a shard
saying "queue full" or "draining" is alive, and the client's existing
429/503 retry behaviour handles it unchanged.

The request handler and the server lifecycle are the shared HTTP core of
:mod:`repro.server.http` (:class:`~repro.server.http.JsonHandler`,
:class:`~repro.server.http.HttpService`); this module adds only the
proxying, the fan-out views and the sample merge.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from typing import Iterator

from repro.cluster.health import HealthMonitor
from repro.cluster.ring import ShardMember, ShardRing
from repro.obs.logging import get_logger
from repro.obs.monitor import Monitor, MonitorConfig
from repro.obs.store import get_store
from repro.obs.trace import TRACE_HEADER, current_trace, record_span, span
# The gateway shares the backend's HTTP core, so its edge limits and reply
# plumbing stay in lockstep with a shard's.
from repro.server.http import JOB_ROUTES, HttpService, JsonHandler
from repro.server.metrics import render_prometheus
from repro.server.tenancy import TENANT_HEADER, normalize_tenant

#: Socket headroom added on top of a proxied blocking wait.
PROXY_MARGIN_S = 30.0
#: Names the shard that answered a proxied request.
SHARD_HEADER = "X-Repro-Shard"

_LOG = get_logger("cluster.gateway")

#: Transport-level failures that trigger failover to the next ring member.
_TRANSPORT_ERRORS = (ConnectionError, TimeoutError,
                     http.client.HTTPException, urllib.error.URLError)


class NoShardAvailableError(RuntimeError):
    """Every shard in the ring was unreachable for a forwarded request."""


def _leaves(sample: dict, path: tuple = ()) -> Iterator[tuple[tuple, float]]:
    """Flatten a metrics sample into ``(path, value)`` leaves.

    A histogram's cumulative bucket list becomes one leaf per bound (the
    path ends in the float bound), so sums and restart offsets treat every
    bucket like any other counter.
    """
    for key, value in sample.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        elif isinstance(value, (list, tuple)):
            for bound, cumulative in value:
                yield path + (key, float(bound)), cumulative
        else:
            yield path + (key,), value


def _nest(leaves: dict[tuple, float]) -> dict:
    """Rebuild the nested sample from :func:`_leaves` output."""
    sample: dict = {}
    for path, value in sorted(leaves.items()):
        bucket = isinstance(path[-1], float)  # (..., "buckets", bound)
        *head, key = path[:-1] if bucket else path
        node = sample
        for part in head:
            node = node.setdefault(part, {})
        if bucket:
            node.setdefault(key, []).append((path[-1], value))
        else:
            node[key] = value
    return sample


class GatewayMetrics:
    """The gateway's own counters (shard counters are labelled by name)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0  #: guarded by self._lock
        self.failovers = 0  #: guarded by self._lock
        self.bad_requests = 0  #: guarded by self._lock
        # Requests that exhausted every shard.
        self.unrouted = 0  #: guarded by self._lock
        self._shard_requests: dict[str, int] = {}  #: guarded by self._lock
        self._shard_failures: dict[str, int] = {}  #: guarded by self._lock
        self._tenant_requests: dict[str, int] = {}  #: guarded by self._lock

    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_bad_request(self) -> None:
        with self._lock:
            self.bad_requests += 1

    def record_unrouted(self) -> None:
        with self._lock:
            self.unrouted += 1

    def record_proxied(self, shard: str) -> None:
        with self._lock:
            self._shard_requests[shard] = self._shard_requests.get(shard, 0) + 1

    def record_tenant(self, tenant: str) -> None:
        """One submission attributed to ``tenant`` at the cluster edge."""
        with self._lock:
            self._tenant_requests[tenant] = (
                self._tenant_requests.get(tenant, 0) + 1)

    def record_failover(self, shard: str) -> None:
        """One failed attempt against ``shard`` that moved to the next member."""
        with self._lock:
            self.failovers += 1
            self._shard_failures[shard] = self._shard_failures.get(shard, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests,
                    "failovers": self.failovers,
                    "bad_requests": self.bad_requests,
                    "unrouted": self.unrouted,
                    "shard_requests": dict(self._shard_requests),
                    "shard_failures": dict(self._shard_failures),
                    "tenant_requests": dict(self._tenant_requests)}

    def to_prometheus(self, ring: ShardRing,
                      prefix: str = "repro_cluster") -> list[str]:
        with self._lock:
            lines = [
                f"# TYPE {prefix}_gateway_requests_total counter",
                f"{prefix}_gateway_requests_total {self.requests}",
                f"# TYPE {prefix}_failovers_total counter",
                f"{prefix}_failovers_total {self.failovers}",
                f"# TYPE {prefix}_gateway_bad_requests_total counter",
                f"{prefix}_gateway_bad_requests_total {self.bad_requests}",
                f"# TYPE {prefix}_gateway_unrouted_total counter",
                f"{prefix}_gateway_unrouted_total {self.unrouted}",
                f"# TYPE {prefix}_shards_alive gauge",
                f"{prefix}_shards_alive {len(ring.alive_members())}",
                f"# TYPE {prefix}_shard_up gauge",
            ]
            for member in ring.members:
                lines.append(f'{prefix}_shard_up{{shard="{member.name}"}} '
                             f"{1 if member.alive else 0}")
            lines.append(f"# TYPE {prefix}_shard_requests_total counter")
            for name in sorted(self._shard_requests):
                lines.append(f'{prefix}_shard_requests_total{{shard="{name}"}} '
                             f"{self._shard_requests[name]}")
            lines.append(f"# TYPE {prefix}_shard_failures_total counter")
            for name in sorted(self._shard_failures):
                lines.append(f'{prefix}_shard_failures_total{{shard="{name}"}} '
                             f"{self._shard_failures[name]}")
            lines.append(f"# TYPE {prefix}_gateway_tenant_requests_total "
                         "counter")
            for name in sorted(self._tenant_requests):
                lines.append(
                    f'{prefix}_gateway_tenant_requests_total{{tenant="{name}"}}'
                    f" {self._tenant_requests[name]}")
        return lines


class _GatewayHandler(JsonHandler):
    """Routes requests to the owning :class:`ClusterGateway`."""

    server_version = "repro-cluster-gateway"
    span_name = "gateway.request"
    logger = _LOG

    def _begin(self) -> str:
        self.app.metrics.record_request()
        return super()._begin()

    def _handle_get(self, path: str) -> None:
        if path.startswith("/jobs/") or path.startswith("/results/"):
            key = path.rsplit("/", 1)[1]
            self._proxy(key, "GET", path)
        else:
            super()._handle_get(path)

    def _handle_post(self, path: str) -> None:
        # A malformed job is rejected at the edge with the backend's exact
        # contract, so it never costs a shard round-trip.
        submission = self._read_submission(path)
        if submission is None:
            if path in JOB_ROUTES:  # a 400/413, not an unknown route
                self.app.metrics.record_bad_request()
            return
        job, payload, wait_timeout = submission
        # Tenant identity travels in the header (never the payload), so the
        # job key — and therefore shard placement and coalescing — is
        # identical for every tenant submitting the same spec.
        tenant = normalize_tenant(self.headers.get(TENANT_HEADER))
        self.app.metrics.record_tenant(tenant)
        if self._span is not None:
            self._span.attributes["job_key"] = job.key
            self._span.attributes["tenant"] = tenant
        timeout = (wait_timeout + PROXY_MARGIN_S
                   if payload.get("wait") else None)
        self._proxy(job.key, "POST", path,
                    body=json.dumps(payload).encode("utf-8"), timeout=timeout,
                    tenant=tenant)

    def _proxy(self, key: str, method: str, path: str, *,
               body: bytes | None = None,
               timeout: float | None = None,
               tenant: str | None = None) -> None:
        try:
            shard, status, reply_body, content_type = self.app.forward(
                key, method, path, body=body, timeout=timeout, tenant=tenant)
        except NoShardAvailableError as exc:
            self._error(503, str(exc))
            return
        self._reply(status, reply_body, content_type=content_type,
                    headers={SHARD_HEADER: shard.name})


class ClusterGateway(HttpService):
    """HTTP gateway fronting N :class:`CompileServer` shards.

    Parameters
    ----------
    shards:
        Shard backends: URLs, ``{"name", "url", "weight"}`` dicts or
        :class:`ShardMember` instances (see :class:`ShardRing`).
    host, port:
        Gateway bind address; ``port=0`` picks an ephemeral port.
    mode:
        Placement mode, ``"rendezvous"`` (default) or ``"ring"``.
    health_interval, probe_timeout, fail_threshold, ok_threshold:
        Health-monitor knobs (see :class:`HealthMonitor`).
    proxy_timeout:
        Default socket timeout for proxied requests without a blocking wait.
    monitor:
        Fleet monitoring configuration (``None`` = defaults, ``False`` =
        disabled, dict / :class:`~repro.obs.monitor.MonitorConfig` =
        overrides).  The monitor's metrics source is the merged fleet
        sample, so its windows/SLOs/alerts describe the whole fleet.
    """

    role = "gateway"

    def __init__(self, shards, host: str = "127.0.0.1", port: int = 0, *,
                 mode: str = "rendezvous", replicas: int = 64,
                 health_interval: float = 1.0, probe_timeout: float = 2.0,
                 fail_threshold: int = 2, ok_threshold: int = 1,
                 proxy_timeout: float = 30.0,
                 monitor: MonitorConfig | dict | bool | None = None):
        self.proxy_timeout = proxy_timeout
        self.ring = ShardRing(shards, mode=mode, replicas=replicas)
        self.health_monitor = HealthMonitor(
            self.ring, interval=health_interval, timeout=probe_timeout,
            fail_threshold=fail_threshold, ok_threshold=ok_threshold)
        self.metrics = GatewayMetrics()
        # Last successfully-fetched sample leaves per shard: an unreachable
        # or ejected shard keeps contributing its last-known values so the
        # merged totals never go backwards (a Prometheus counter-reset dip
        # would make rate()/increase() misfire exactly during an outage).
        self._samples_lock = threading.Lock()
        self._last_samples: dict[str, dict[tuple, float]] = {}  #: guarded by self._samples_lock
        # Counter-reset compensation per shard: when a restarted shard
        # reports a monotone leaf *below* its last raw reading, the old
        # reading is banked as an offset so the shard's merged contribution
        # (raw + offset) keeps counting from where it left off.  Works per
        # leaf, so tenant counters and histogram buckets stay monotone too.
        self._raw_counters: dict[str, dict[tuple, float]] = {}  #: guarded by self._samples_lock
        self._counter_offsets: dict[str, dict[tuple, float]] = {}  #: guarded by self._samples_lock
        self.monitor = Monitor(self.metrics_sample, monitor, name="gateway")
        self._bind(host, port, _GatewayHandler)

    def health(self) -> dict:
        shards = self.health_monitor.snapshot()
        return {
            "status": "ok",
            "role": self.role,
            "mode": self.ring.mode,
            "uptime_s": round(self._uptime(), 3),
            "shards": shards,
            "shards_alive": sum(1 for shard in shards if shard["alive"]),
            "ejections": self.health_monitor.ejections,
            "readmissions": self.health_monitor.readmissions,
            "gateway": self.metrics.snapshot(),
            "traces": get_store().stats(),
            "monitor": self.monitor.status(),
        }

    # ------------------------------------------------------------------ #
    def fetch_trace(self, ident: str) -> dict | None:
        """Stitch one distributed trace from the gateway and every shard.

        ``ident`` is a trace id, a job key, or a >= 8-char job-key prefix.
        The gateway's own spans come from the local store; every ring member
        (ejected ones included — they may still hold the spans) is asked for
        its part and the union is deduplicated by span id, which also makes
        in-process fleets (shards sharing this process's span ring) safe.
        Returns ``None`` when nobody knows the trace.
        """
        store = get_store()
        trace_id: str | None = None
        spans: dict[str, dict] = {}

        def absorb(rows) -> None:
            nonlocal trace_id
            for row in rows:
                if trace_id is None:
                    trace_id = row.get("trace_id")
                if row.get("trace_id") == trace_id and row.get("span_id"):
                    spans[row["span_id"]] = row

        local = store.trace(ident)
        if not local:
            resolved = store.find_trace(ident)
            if resolved is not None:
                local = store.trace(resolved)
        absorb(local)
        polled = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/traces/{trace_id or ident}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("trace_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            polled += 1
            if status != 200:
                continue
            try:
                payload = json.loads(body.decode("utf-8", errors="replace"))
            except ValueError:
                _LOG.debug("trace_poll_unparsable", shard=member.name)
                continue
            absorb(payload.get("spans") or [])
        if not spans:
            return None
        rows = sorted(spans.values(),
                      key=lambda row: (row["start"], row["span_id"]))
        return {"trace_id": trace_id, "spans": rows,
                "shards_polled": polled}

    def trace_summaries(self, limit: int = 50) -> dict:
        """Merged ``GET /traces`` digests across the gateway and all shards.

        Distributed parts of one trace (gateway spans here, execution spans
        on a shard) merge into a single row: earliest start wins the root,
        span counts add up, and the duration covers the union of intervals.
        """
        rows: dict[str, dict] = {}

        def absorb(items) -> None:
            for item in items:
                held = rows.get(item.get("trace_id"))
                if held is None:
                    rows[item["trace_id"]] = dict(item)
                    continue
                end = max(held["start"] + held["duration_s"],
                          item["start"] + item["duration_s"])
                if item["start"] < held["start"]:
                    held["start"] = item["start"]
                    held["root"] = item["root"]
                held["duration_s"] = round(end - held["start"], 6)
                held["spans"] += item["spans"]
                held["job_keys"] = sorted(set(held.get("job_keys") or ())
                                          | set(item.get("job_keys") or ()))

        absorb(get_store().summaries(limit))
        polled = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/traces?limit={limit}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("trace_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            if status != 200:
                continue
            try:
                payload = json.loads(body.decode("utf-8", errors="replace"))
            except ValueError:
                _LOG.debug("trace_poll_unparsable", shard=member.name)
                continue
            absorb(payload.get("traces") or [])
            polled += 1
        ordered = sorted(rows.values(), key=lambda row: row["start"],
                         reverse=True)
        return {"traces": ordered[:max(0, limit)],
                "store": get_store().stats(), "shards_polled": polled}

    # ------------------------------------------------------------------ #
    def forward(self, key: str, method: str, path: str, *,
                body: bytes | None = None, timeout: float | None = None,
                tenant: str | None = None
                ) -> tuple[ShardMember, int, bytes, str]:
        """Send one request to the owning shard, failing over along the ring.

        Returns ``(member, status, body, content_type)`` of the first shard
        that *answered* (any HTTP status counts as an answer — only transport
        failures move on to the next member).  A GET answered 404 falls
        through to the remaining members — *including ejected ones*, since a
        briefly-ejected shard may still be reachable and holding the ticket
        (a wrong 404 is worse than a cheap refused connect); the last 404 is
        returned when every member says unknown.
        """
        order = self.ring.preference(key)
        alive = [member for member in order if member.alive]
        dead = [member for member in order if not member.alive]
        attempts = alive + dead if method == "GET" else (alive or dead)
        held: tuple[ShardMember, int, bytes, str] | None = None
        for member in attempts:
            attempt_start = time.time()  # wall-clock: backdated gateway.failover span start
            try:
                # The proxy span wraps the shard round-trip, so the shard's
                # own ``server.request`` span (propagated via the header
                # inside ``_request``) nests under it in the stitched trace.
                with span("gateway.proxy", shard=member.name) as entry:
                    status, reply_body, content_type = self._request(
                        member, method, path, body=body, timeout=timeout,
                        tenant=tenant)
                    if entry is not None:
                        entry.attributes["status"] = status
            except _TRANSPORT_ERRORS as exc:
                if member.alive:
                    # Last-ditch attempts against already-ejected members
                    # are expected to fail; don't skew failover counters
                    # or the health hysteresis with them.
                    context = current_trace()
                    if context is not None:
                        record_span("gateway.failover", trace=context,
                                    start=attempt_start, shard=member.name,
                                    error=type(exc).__name__)
                    _LOG.warning("shard_failover", shard=member.name,
                                 error=type(exc).__name__,
                                 key=key[:12])
                    self.metrics.record_failover(member.name)
                    self.health_monitor.report_failure(member)
                continue
            self.metrics.record_proxied(member.name)
            if method == "GET" and status == 404 and member is not attempts[-1]:
                held = (member, status, reply_body, content_type)
                continue
            return member, status, reply_body, content_type
        if held is not None:
            return held
        raise NoShardAvailableError(
            f"no shard reachable for key {key[:12]}...; "
            f"{len(self.ring)} members, 0 answered")

    def _request(self, member: ShardMember, method: str, path: str, *,
                 body: bytes | None = None, timeout: float | None = None,
                 tenant: str | None = None) -> tuple[int, bytes, str]:
        request = urllib.request.Request(member.url + path, method=method)
        context = current_trace()
        if context is not None:
            request.add_header(TRACE_HEADER, context.to_header())
        if tenant is not None:
            request.add_header(TENANT_HEADER, tenant)
        if body is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                    request, data=body,
                    timeout=timeout or self.proxy_timeout) as reply:
                return (reply.status, reply.read(),
                        reply.headers.get("Content-Type",
                                          "application/json"))
        except urllib.error.HTTPError as exc:
            # The shard answered: pass its error reply through verbatim.
            return (exc.code, exc.read(),
                    exc.headers.get("Content-Type", "application/json"))

    # ------------------------------------------------------------------ #
    def merged_sample(self) -> tuple[dict, int, int]:
        """Fetch every shard's ``/metrics/sample`` and sum them leaf by leaf.

        Returns ``(merged, polled, contributing)``: ``polled`` shards
        answered this round, ``contributing`` shards added values at all (a
        dead shard contributes its last-known sample, and a restarted
        shard's monotone values are offset by its pre-restart readings, so
        fleet counters never go backwards across shard outages).  Summing
        is valid for histograms because every shard uses the same fixed
        bucket bounds.
        """
        totals: dict[tuple, float] = {}
        polled = 0
        contributing = 0
        for member in self.ring.members:
            leaves: dict[tuple, float] | None = None
            try:
                # Poll with the (short) health-probe timeout: a wedged shard
                # must not stall the whole cluster's metrics.
                status, body, _ = self._request(
                    member, "GET", "/metrics/sample",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS:
                if member.alive:
                    self.health_monitor.report_failure(member)
            else:
                polled += 1
                try:
                    sample = json.loads(body.decode("utf-8", errors="replace"))
                except ValueError:
                    sample = None
                if status == 200 and isinstance(sample, dict):
                    with self._samples_lock:
                        leaves = self._absorb_sample(member.name, sample)
            if leaves is None:
                with self._samples_lock:
                    leaves = self._last_samples.get(member.name, {})
            if leaves:
                contributing += 1
            for path, value in leaves.items():
                totals[path] = totals.get(path, 0) + value
        return _nest(totals), polled, contributing

    def _absorb_sample(self, shard: str, sample: dict) -> dict[tuple, float]:
        """Fold one fresh shard sample into the per-shard caches (lock held).

        Every leaf outside ``gauges`` is monotone; one that regressed below
        the shard's last raw reading signals a restart, so the lost progress
        is banked as an offset and every later reading is shifted by it,
        keeping the merged series non-decreasing.  Gauges pass through
        untouched — a restarted shard's queue depth really is small.
        """
        raw = self._raw_counters.setdefault(shard, {})
        offsets = self._counter_offsets.setdefault(shard, {})
        adjusted: dict[tuple, float] = {}
        for path, value in _leaves(sample):
            if path[0] != "gauges":
                last = raw.get(path)
                if last is not None and value < last:
                    offsets[path] = offsets.get(path, 0) + last
                raw[path] = value
                value += offsets.get(path, 0)
            adjusted[path] = value
        self._last_samples[shard] = adjusted
        return adjusted

    def metrics_sample(self) -> dict:
        """The fleet sample: the monitor's source and ``GET /metrics/sample``.

        Merged shard counters/histograms are still *cumulative* series (sums
        of per-shard cumulative values), so the recorder differences them
        exactly as it would a single shard's.  Per-shard utilization gauges
        (sums of fractions) are averaged over the contributing shards; fleet
        topology and the gateway's own counters ride along.
        """
        sample, polled, contributing = self.merged_sample()
        gauges = sample.setdefault("gauges", {})
        for name in ("worker_utilization", "queue_saturation",
                     "trace_span_ring_utilization"):
            if name in gauges:
                gauges[name] = round(gauges[name] / max(1, contributing), 4)
        gauges["shards_total"] = float(len(self.ring))
        gauges["shards_alive"] = float(len(self.ring.alive_members()))
        gauges["shards_polled"] = float(polled)
        snapshot = self.metrics.snapshot()
        counters = sample.setdefault("counters", {})
        counters["gateway_failovers"] = float(snapshot["failovers"])
        counters["gateway_unrouted"] = float(snapshot["unrouted"])
        return sample

    def alerts_payload(self, limit: int | None = None) -> dict:
        """Fleet ``GET /alerts``: gateway-level alerts + every shard's.

        The gateway's own burn-rate alerts watch the merged series; shard
        payloads are fanned in with a ``shard`` tag on every active alert
        and event (shard events carry the exemplar trace ids, which the
        gateway's stitched ``/traces/<id>`` can render).
        """
        payload = self.monitor.alerts_payload(limit)
        payload["shards_polled"] = 0
        for member in self.ring.members:
            try:
                status, body, _ = self._request(
                    member, "GET", f"/alerts?limit={limit or 100}",
                    timeout=self.health_monitor.timeout)
            except _TRANSPORT_ERRORS as exc:
                _LOG.debug("alerts_poll_failed", shard=member.name,
                           error=type(exc).__name__)
                continue
            if status != 200:
                continue
            try:
                shard_payload = json.loads(body.decode("utf-8",
                                                       errors="replace"))
            except ValueError:
                _LOG.debug("alerts_poll_unparsable", shard=member.name)
                continue
            payload["shards_polled"] += 1
            for row in shard_payload.get("active") or []:
                row["shard"] = member.name
                payload["active"].append(row)
            for event in shard_payload.get("events") or []:
                event["shard"] = member.name
                payload["events"].append(event)
            payload["firing"] += int(shard_payload.get("firing", 0))
        payload["active"].sort(key=lambda row: row["state"] != "firing")
        payload["events"].sort(key=lambda event: event.get("at", 0.0),
                               reverse=True)
        if limit is not None:
            payload["events"] = payload["events"][:limit]
        return payload

    # ------------------------------------------------------------------ #
    def metrics_text(self, prefix: str = "repro_cluster") -> str:
        """Cluster-wide Prometheus text: gateway counters + merged shards.

        The merged shard sample (see :meth:`merged_sample`) is rendered
        by the servers' own renderer under the ``repro_cluster`` prefix, so
        histogram p50/p95 come from the merged cumulative buckets.
        """
        sample, polled, _ = self.merged_sample()
        lines = self.metrics.to_prometheus(self.ring, prefix)
        lines.append(f"# TYPE {prefix}_shards_polled gauge")
        lines.append(f"{prefix}_shards_polled {polled}")
        return "\n".join(lines) + "\n" + render_prometheus(sample, prefix)

    # ------------------------------------------------------------------ #
    def _start_workers(self) -> None:
        self.health_monitor.start()

    def stop(self, timeout: float = 10.0) -> None:
        self.health_monitor.stop()
        self._stop_http(timeout)
