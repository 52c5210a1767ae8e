"""repro.server — online compilation server over the batch service.

Where :mod:`repro.service` compiles batches owned by one caller, the server
turns the reproduction into a long-running system any number of clients hit
concurrently:

* :mod:`repro.server.queue` — thread-safe priority queue with *coalescing*
  (identical in-flight jobs share one computation), bounded-depth admission
  control, per-tenant quotas and weighted-fair (deficit-round-robin)
  dequeue across tenants,
* :mod:`repro.server.tenancy` — the ``X-Repro-Tenant`` header contract and
  tenant-name normalisation shared by client, server and gateway,
* :mod:`repro.server.scheduler` — a worker pool draining the queue through
  :class:`~repro.service.executor.CompilationService` (so the result cache
  short-circuits warm jobs), with pause/resume, graceful shutdown and
  per-job timeouts,
* :mod:`repro.server.metrics` — counters and latency histograms, read as
  one structured cumulative sample and rendered to Prometheus text,
* :mod:`repro.server.http` — the HTTP core the server and the cluster
  gateway share, and :class:`CompileServer`, a stdlib-only HTTP JSON API
  (``POST /jobs``, ``GET /jobs/<key>``, ``GET /results/<key>``,
  ``GET /metrics``, ``GET /metrics/sample``, ``GET /healthz``),
* :mod:`repro.server.client` — :class:`CompileClient`, the ``urllib`` client
  used by the CLI and the end-to-end tests.

Quickstart::

    from repro.server import CompileServer, CompileClient
    from repro.service import make_job

    with CompileServer(port=0, workers=2) as server:
        client = CompileClient(server.url)
        outcome = client.compile(make_job(circuit, "ibm_q20_tokyo", "codar"))
        print(outcome.summary["weighted_depth"])
"""

from repro.server.client import CompileClient, ServerError
from repro.server.http import CompileServer
from repro.server.metrics import Histogram, ServerMetrics
from repro.server.queue import (JobQueue, JobTicket, QueueClosedError,
                                QueueFullError, TenantQuotaError)
from repro.server.scheduler import Scheduler
from repro.server.tenancy import DEFAULT_TENANT, TENANT_HEADER, normalize_tenant

__all__ = [
    "CompileServer",
    "CompileClient",
    "ServerError",
    "JobQueue",
    "JobTicket",
    "QueueFullError",
    "QueueClosedError",
    "TenantQuotaError",
    "Scheduler",
    "ServerMetrics",
    "Histogram",
    "DEFAULT_TENANT",
    "TENANT_HEADER",
    "normalize_tenant",
]
