"""Stdlib-only HTTP JSON API in front of the scheduler, and the HTTP core.

Endpoints (all JSON unless noted):

* ``POST /jobs`` — submit a job.  Body: a :meth:`CompileJob.to_dict` payload,
  either bare or under ``"job"``, plus optional ``"priority"`` (int, lower
  runs first), ``"wait"`` (bool) and ``"timeout"`` (seconds, with ``wait``).
  A payload carrying a ``"pipeline"`` key (preset name or stage-spec list,
  see :mod:`repro.compiler`) runs the staged pass pipeline instead of a bare
  router and is cached under a key that changes with any stage spec.
  Replies ``202`` with ``{key, status, coalesced}`` on admission, ``200`` with
  the outcome when ``wait`` resolved in time, ``429`` when the queue is full,
  ``400`` on a malformed job or ``Content-Length``, ``413`` on an oversized
  body and ``503`` once shutdown has begun.
* ``POST /portfolio`` — same contract for a
  :class:`~repro.service.jobs.PortfolioJob` payload (candidates/cost/racing
  specs): the job races its candidates and the outcome is the cost-model
  winner with a ``"portfolio"`` breakdown; queued, coalesced and cached like
  any compile job.
* ``GET /jobs/<key>`` — ticket status snapshot; ``404`` for unknown keys.
* ``GET /results/<key>`` — ``{key, cache_hit, outcome}`` when finished
  (recent ticket or result cache), ``202`` while in flight, ``404`` unknown.
* ``GET /metrics`` — Prometheus text exposition (``text/plain``), including
  per-pipeline-stage cumulative timings
  (``repro_server_stage_seconds_total{stage=...}``) and process-health
  gauges (uptime, RSS, threads, span-ring occupancy).
* ``GET /metrics/sample`` — the same cumulative metrics as one structured
  JSON sample (:meth:`~repro.server.metrics.ServerMetrics.history_sample`);
  what the cluster gateway merges and the load generator differences.
* ``GET /metrics/history`` — the monitor's rolling-window views and
  sparkline series (``?seconds=N`` trims the series); ``503`` when the
  monitor is disabled.
* ``GET /slo`` — every SLO scored over the rolling windows, with error
  budgets; ``503`` when the monitor is disabled.
* ``GET /alerts`` — active alerts plus recent transition events
  (``?limit=N`` caps events); ``503`` when the monitor is disabled.
* ``GET /healthz`` — liveness plus metrics/cache/span-store/process/monitor
  snapshots.
* ``GET /traces`` — newest-first digests of recently traced requests (ring
  buffer, strictly bounded); ``?limit=N`` caps the rows.
* ``GET /traces/<id>`` — every stored span of one trace, by full trace id or
  by job key (full or >= 8-char prefix); ``404`` when evicted/unknown.

Integer query parameters (``limit``, ``seconds``) are clamped at zero.

Tracing: ``POST`` submissions parse the ``X-Repro-Trace`` header (minting a
fresh trace when absent) and run inside a ``server.request`` span, so queue
waits, execution and pipeline stages recorded deeper down assemble into one
tree.  The header is echoed on the response and the trace id is embedded in
submit replies.  Status polls (``GET``) are deliberately untraced — a 30 s
blocking wait would otherwise bury the ring under hundreds of poll spans.

The HTTP core is shared with :class:`~repro.cluster.gateway.ClusterGateway`:
:class:`JsonHandler` holds the reply/body/query plumbing, the routes both
servers answer alike and the traced ``POST`` wrapper; :class:`HttpService`
holds the lifecycle.  The server is a ``ThreadingHTTPServer``: each request
gets a thread, so a blocking ``wait`` submit does not starve status polls.
:class:`CompileServer` bundles queue + scheduler + HTTP into one object with
``start``/``stop`` and context-manager support; ``port=0`` binds an
ephemeral port (see ``.url``).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.obs.logging import get_logger
from repro.obs.monitor import Monitor, MonitorConfig
from repro.obs.store import configure_store, get_store
from repro.obs.trace import TRACE_HEADER, TraceContext, activate, span
from repro.server.metrics import ServerMetrics, rss_bytes, thread_count
from repro.server.queue import (JobQueue, QueueClosedError, QueueFullError,
                                TenantQuotaError)
from repro.server.scheduler import Scheduler
from repro.server.tenancy import TENANT_HEADER, normalize_tenant
from repro.service.cache import ResultCache
from repro.service.executor import CompilationService
from repro.service.jobs import CompileJob, PortfolioJob

#: Cap on request bodies; the largest suite QASM is ~100 kB.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest a single blocking-wait submit may hold its request thread.
MAX_WAIT_S = 300.0
#: Submission routes and the job type each one accepts.
JOB_ROUTES = {"/jobs": CompileJob, "/portfolio": PortfolioJob}

_JSON_TYPE = "application/json; charset=utf-8"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_MONITOR_VIEWS = ("/metrics/history", "/slo", "/alerts")

_LOG = get_logger("server.http")


class JsonHandler(BaseHTTPRequestHandler):
    """The request-handler base both servers mount (``server.app`` is the
    owning :class:`HttpService`).

    Subclasses set ``server_version``, ``span_name`` and ``logger``, and
    implement ``_handle_get(path)`` for the routes beyond the shared ones
    and ``_handle_post(path)`` for submissions.
    """

    protocol_version = "HTTP/1.1"
    span_name = "server.request"
    logger = _LOG
    _trace: TraceContext | None = None
    _span = None

    @property
    def app(self) -> "HttpService":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        # Structured instead of the stdlib's raw stderr lines: 4xx/5xx during
        # an incident are greppable by trace id like everything else.
        self.logger.debug("http_access", client=self.address_string(),
                          message=format % args)

    def _reply(self, status: int, payload: dict | str | bytes, *,
               content_type: str = _JSON_TYPE,
               headers: dict[str, str] | None = None) -> None:
        if self._span is not None:
            self._span.attributes["status"] = status
        if isinstance(payload, dict):
            payload = json.dumps(payload, sort_keys=True)
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        self.send_response(status)
        if self._trace is not None:
            self.send_header(TRACE_HEADER, self._trace.to_header())
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Where the body ends is unknown, so the keep-alive stream cannot
            # be resynced: answer, then drop the connection.
            self.close_connection = True
            self._error(400, "invalid Content-Length header")
            return None
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the keep-alive stream is desynced;
            # make the client reconnect instead of parsing body bytes as a
            # request line.
            self.close_connection = True
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "JSON body must be an object")
            return None
        return payload

    def _read_submission(self, path: str) -> tuple | None:
        """``(job, payload, timeout)`` of a submit, or ``None`` once an error
        reply (404 unknown route, 400/413 unusable body) has been sent.

        ``timeout`` is the blocking-wait bound, clamped at ``MAX_WAIT_S``.
        """
        job_cls = JOB_ROUTES.get(path)
        if job_cls is None:
            self._error(404, f"unknown path {self.path!r}")
            return None
        payload = self._read_json()
        if payload is None:
            return None
        try:
            job = job_cls.from_dict(payload.get("job", payload))
            timeout = min(float(payload.get("timeout", 30.0)), MAX_WAIT_S)
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad job payload: {exc}")
            return None
        return job, payload, timeout

    def _query_int(self, name: str, default: int) -> int:
        """Query parameter ``name`` clamped at zero (``default`` if absent
        or not an integer)."""
        for item in urlsplit(self.path).query.split("&"):
            key, sep, value = item.partition("=")
            if sep and key == name:
                try:
                    return max(0, int(value))
                except ValueError:
                    return default
        return default

    # ------------------------------------------------------------------ #
    def _begin(self) -> str:
        """Start one request; returns its path without query string.

        Handler instances live per *connection*: request-scoped trace state
        is cleared so a keep-alive GET never reuses the previous POST's.
        """
        self._trace = None
        self._span = None
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self._begin()
        if path == "/healthz":
            self._reply(200, self.app.health())
        elif path == "/metrics":
            self._reply(200, self.app.metrics_text(),
                        content_type=_PROMETHEUS_TYPE)
        elif path == "/metrics/sample":
            self._reply(200, self.app.metrics_sample())
        elif path in _MONITOR_VIEWS:
            self._get_monitor(path)
        elif path == "/traces":
            self._reply(200, self.app.trace_summaries(
                self._query_int("limit", 50)))
        elif path.startswith("/traces/"):
            ident = path[len("/traces/"):]
            found = self.app.fetch_trace(ident)
            if found is None:
                self._error(404, f"no trace for {ident!r}")
            else:
                self._reply(200, found)
        else:
            self._handle_get(path)

    def _get_monitor(self, path: str) -> None:
        monitor = self.app.monitor
        if not monitor.enabled:
            self._error(503, f"monitoring is disabled on this {self.app.role}")
        elif path == "/metrics/history":
            seconds = self._query_int("seconds", 0)
            self._reply(200, monitor.history_payload(
                float(seconds) if seconds else None))
        elif path == "/slo":
            self._reply(200, monitor.slo_payload())
        else:
            self._reply(200, self.app.alerts_payload(
                self._query_int("limit", 100)))

    def _handle_get(self, path: str) -> None:
        self._error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        path = self._begin()
        # Continue the caller's trace (X-Repro-Trace) or start a fresh one:
        # every submission is traced, and everything recorded downstream for
        # this request nests under its request span.
        context = (TraceContext.from_header(self.headers.get(TRACE_HEADER))
                   or TraceContext.new())
        self._trace = context
        started = time.monotonic()
        with activate(context):
            with span(self.span_name, method="POST", path=path) as entry:
                self._span = entry
                self._handle_post(path)
            elapsed = time.monotonic() - started
            slow_after = self.app.slow_request_s
            if slow_after is not None and elapsed >= slow_after:
                self.logger.warning("slow_request", method="POST", path=path,
                                    elapsed_s=round(elapsed, 6),
                                    threshold_s=slow_after)

    def _handle_post(self, path: str) -> None:
        raise NotImplementedError


class HttpService:
    """The lifecycle base both servers share: bind, a background HTTP
    thread, ``start``/``stop``, ``serve_forever`` and context management.

    Subclasses call :meth:`_bind` from ``__init__``, create ``self.monitor``
    and implement ``health``, ``metrics_text``, ``metrics_sample``,
    ``_start_workers`` and ``stop`` (which calls :meth:`_stop_http`).  The
    trace and alert views default to this process's own span store and
    monitor.
    """

    #: Names the service in error replies, log lines and its HTTP thread.
    role = "server"
    #: POSTs slower than this log a ``slow_request`` warning (None = off).
    slow_request_s: float | None = None
    monitor: Monitor

    def _bind(self, host: str, port: int,
              handler: type[JsonHandler]) -> None:
        # The stdlib default listen backlog (request_queue_size=5) drops —
        # and on Linux resets — connections under a client-herd burst, which
        # an upstream gateway would misread as a dead shard and fail over.
        self._httpd = ThreadingHTTPServer((host, port), handler,
                                          bind_and_activate=False)
        self._httpd.request_queue_size = 128
        self._httpd.server_bind()
        self._httpd.server_activate()
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _uptime(self) -> float:
        return (time.monotonic() - self._started_at
                if self._started_at is not None else 0.0)

    # ------------------------------------------------------------------ #
    def trace_summaries(self, limit: int = 50) -> dict:
        """The ``GET /traces`` body: newest-first digests plus ring stats."""
        store = get_store()
        return {"traces": store.summaries(limit), "store": store.stats()}

    def fetch_trace(self, ident: str) -> dict | None:
        """Every stored span of one trace, by trace id or job key (prefix)."""
        store = get_store()
        trace_id, spans = ident, store.trace(ident)
        if not spans:
            resolved = store.find_trace(ident)  # job key / >=8-char prefix
            if resolved is not None:
                trace_id, spans = resolved, store.trace(resolved)
        return {"trace_id": trace_id, "spans": spans} if spans else None

    def alerts_payload(self, limit: int | None = None) -> dict:
        """The ``GET /alerts`` body."""
        return self.monitor.alerts_payload(limit)

    # ------------------------------------------------------------------ #
    def _start_workers(self) -> None:
        raise NotImplementedError

    def start(self):
        if self._http_thread is not None:
            raise RuntimeError(f"{self.role} is already running")
        self._start_workers()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name=f"repro-{self.role}-http")
        self._http_thread.start()
        self._started_at = time.monotonic()
        self.monitor.start()
        return self

    def _stop_http(self, timeout: float) -> None:
        """Stop the monitor and the HTTP thread; no request is accepted
        afterwards."""
        self.monitor.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout)
            self._http_thread = None

    def stop(self) -> None:
        raise NotImplementedError

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: block until interrupted."""
        if self._http_thread is None:
            self.start()
        try:
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


class _Handler(JsonHandler):
    """Routes requests to the owning :class:`CompileServer`."""

    server_version = "repro-server"

    def _handle_get(self, path: str) -> None:
        if path.startswith("/jobs/"):
            self._get_job(path[len("/jobs/"):])
        elif path.startswith("/results/"):
            self._get_result(path[len("/results/"):])
        else:
            super()._handle_get(path)

    def _get_job(self, key: str) -> None:
        ticket = self.app.scheduler.lookup(key)
        if ticket is None:
            self._error(404, f"unknown job {key!r}")
        else:
            self._reply(200, ticket.snapshot())

    def _get_result(self, key: str) -> None:
        outcome = self.app.scheduler.lookup_result(key)
        if outcome is not None:
            self._reply(200, {"key": key, "cache_hit": outcome.cache_hit,
                              "outcome": outcome.to_dict()})
        elif self.app.scheduler.lookup(key) is not None:
            self._reply(202, {"key": key, "status": "pending"})
        else:
            self._error(404, f"no result for job {key!r}")

    # ------------------------------------------------------------------ #
    def _handle_post(self, path: str) -> None:
        submission = self._read_submission(path)
        if submission is None:
            return
        job, payload, timeout = submission
        # The tenant rides on a header (not the job payload) so it can never
        # perturb the content-addressed job key — identical jobs from
        # different tenants still coalesce onto one computation.
        tenant = normalize_tenant(self.headers.get(TENANT_HEADER))
        if self._span is not None:
            self._span.attributes["tenant"] = tenant
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError) as exc:
            self._error(400, f"bad job payload: {exc}")
            return
        wait = bool(payload.get("wait", False))
        try:
            ticket, coalesced = self.app.scheduler.submit(job, priority,
                                                          tenant)
        except TenantQuotaError as exc:
            self.logger.warning("tenant_throttled", tenant=exc.tenant,
                                quota=exc.quota, path=path)
            self._reply(429, {"error": str(exc), "tenant": exc.tenant})
            return
        except QueueFullError as exc:
            self._error(429, str(exc))
            return
        except QueueClosedError as exc:
            self._error(503, str(exc))
            return
        if self._span is not None:
            self._span.attributes.update(job_key=ticket.key,
                                         coalesced=coalesced)
            if coalesced and ticket.trace is not None:
                # Span-link style: the follower keeps its own request span
                # but points at the leader's trace, where the shared
                # queue-wait/execution spans live.
                self._span.attributes["leader_trace_id"] = \
                    ticket.trace.trace_id
        trace_id = self._trace.trace_id if self._trace is not None else None
        if wait:
            outcome = ticket.wait(timeout)
            if outcome is not None:
                self._reply(200, {"key": ticket.key, "coalesced": coalesced,
                                  "cache_hit": outcome.cache_hit,
                                  "trace_id": trace_id, "tenant": tenant,
                                  "outcome": outcome.to_dict()})
                return
        self._reply(202, {"key": ticket.key, "status": ticket.state,
                          "coalesced": coalesced, "trace_id": trace_id,
                          "tenant": tenant,
                          "queue_depth": self.app.queue.depth})


class CompileServer(HttpService):
    """Queue + scheduler + HTTP API bundled into one online server.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read ``.url``).
    workers:
        Scheduler worker threads.
    cache:
        :class:`ResultCache` for warm hits; defaults to a memory-only LRU
        of ``default_cache_entries`` so a long-running server is bounded.
        Pass an on-disk cache to survive restarts.
    max_depth:
        Queue admission bound (``None`` = unbounded).
    job_timeout:
        Per-job wall-clock bound in seconds (``None`` = unbounded).
    slow_request_s:
        Requests slower than this log a ``slow_request`` warning through the
        structured logger (``None`` disables).
    profile_slow_s:
        Forwarded to the scheduler: sample executing jobs and attach a
        ``job.profile`` span to traces slower than this (``None`` disables).
    trace_max_spans:
        Resize the process-global span ring (``None`` keeps the current
        size).  Note the store is per-*process*: in-process servers share it.
    monitor:
        Monitoring configuration: ``None`` (default) enables the monitor
        with default SLOs sampling every 5 s, ``False`` disables it, a dict
        or :class:`~repro.obs.monitor.MonitorConfig` overrides (interval,
        windows, SLO specs, alert rules, per-tenant SLO templates).  Backs
        ``/metrics/history``, ``/slo`` and ``/alerts``.
    tenant_weights, tenant_quotas, default_tenant_quota:
        Forwarded to :class:`~repro.server.queue.JobQueue`: deficit-round-
        robin dequeue weights and per-tenant admission quotas.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache: ResultCache | None = None,
                 max_depth: int | None = 256,
                 job_timeout: float | None = None,
                 default_cache_entries: int = 1024,
                 slow_request_s: float | None = 5.0,
                 profile_slow_s: float | None = None,
                 trace_max_spans: int | None = None,
                 monitor: MonitorConfig | dict | bool | None = None,
                 tenant_weights: dict[str, float] | None = None,
                 tenant_quotas: dict[str, int] | None = None,
                 default_tenant_quota: int | None = None):
        self.slow_request_s = slow_request_s
        if trace_max_spans is not None:
            configure_store(trace_max_spans)
        if cache is None:
            cache = ResultCache(max_entries=default_cache_entries)
        self.cache = cache
        self.service = CompilationService(cache=cache)
        self.queue = JobQueue(max_depth=max_depth,
                              tenant_weights=tenant_weights,
                              tenant_quotas=tenant_quotas,
                              default_tenant_quota=default_tenant_quota)
        self.metrics = ServerMetrics()
        self.scheduler = Scheduler(self.service, queue=self.queue,
                                   workers=workers, job_timeout=job_timeout,
                                   metrics=self.metrics,
                                   profile_slow_s=profile_slow_s)
        # Process-health gauges: saturation signals for `repro top` and the
        # alert rules, next to the queue gauges the scheduler registered.
        self.metrics.register_gauge("uptime_seconds", self._uptime)
        self.metrics.register_gauge("process_rss_bytes", rss_bytes)
        self.metrics.register_gauge("process_threads", thread_count)
        self.metrics.register_gauge(
            "trace_span_ring_spans", lambda: float(len(get_store())))
        self.metrics.register_gauge(
            "trace_span_ring_utilization",
            lambda: round(len(get_store()) / get_store().max_spans, 4))
        self.monitor = Monitor(self.metrics.history_sample, monitor,
                               exemplar_source=self._slo_exemplar,
                               name="server")
        self._bind(host, port, _Handler)

    # ------------------------------------------------------------------ #
    def _slo_exemplar(self, spec) -> str | None:
        """Offending trace id for a firing latency SLO (monitor callback)."""
        if spec.kind != "latency":
            return None
        return self.metrics.exemplar_for(spec.metric, spec.threshold_s,
                                         tenant=getattr(spec, "tenant", None))

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        return self.metrics.to_prometheus()

    def metrics_sample(self) -> dict:
        """The ``GET /metrics/sample`` body: the monitor's own source sample."""
        return self.metrics.history_sample()

    def health(self) -> dict:
        store = get_store()
        return {
            "status": "ok",
            "uptime_s": round(self._uptime(), 3),
            "workers": self.scheduler.workers,
            "queue_depth": self.queue.depth,
            "queue_tenants": self.queue.tenant_depths(),
            "jobs_in_flight": self.scheduler.active,
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats.as_dict(),
            "traces": store.stats(),
            "process": {
                "rss_bytes": rss_bytes(),
                "threads": int(thread_count()),
                "span_ring_utilization": round(
                    len(store) / store.max_spans, 4),
            },
            "monitor": self.monitor.status(),
        }

    # ------------------------------------------------------------------ #
    def _start_workers(self) -> None:
        self.scheduler.start()

    def stop(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, then wind the scheduler down."""
        self._stop_http(timeout)
        self.scheduler.stop(graceful=graceful, timeout=timeout)
