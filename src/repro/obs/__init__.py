"""repro.obs — end-to-end tracing, structured logging and profiling.

The observability layer the serving stack (client → gateway → shard →
queue → pipeline) reports into:

* :mod:`repro.obs.trace` — :class:`TraceContext` propagation (the
  ``X-Repro-Trace`` header + a thread-local context), :class:`Span`
  intervals and the :func:`span` context manager (a no-op when untraced);
* :mod:`repro.obs.store` — the per-process ring-buffer :class:`SpanStore`
  behind ``GET /traces``;
* :mod:`repro.obs.logging` — JSON-lines structured logging stamped with
  trace ids;
* :mod:`repro.obs.profile` — an opt-in thread-stack sampling wall-clock
  profiler (:class:`SamplingProfiler`);
* :mod:`repro.obs.render` — the ``repro trace`` span-tree renderer with
  critical-path annotation.

The **monitor layer** sits on top of the raw telemetry and watches it:

* :mod:`repro.obs.timeseries` — :class:`MetricsRecorder`, a bounded ring
  of cumulative metric snapshots with rolling-window difference views
  (jobs/s, error rate, windowed p50/p95);
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives with
  error-budget and burn-rate accounting;
* :mod:`repro.obs.alerts` — :class:`BurnRateRule` multi-window burn-rate
  alerting with a pending → firing → resolved state machine;
* :mod:`repro.obs.monitor` — the :class:`Monitor` facade embedded in
  CompileServer and ClusterGateway (one tick = sample + score + alert);
* :mod:`repro.obs.dashboard` — the pure frame renderer behind
  ``repro top``.

Everything is stdlib-only and safe to import from any layer: ``repro.obs``
depends on nothing else in the package.
"""

from repro.obs.alerts import AlertManager, BurnRateRule
from repro.obs.dashboard import render_dashboard, sparkline
from repro.obs.logging import StructuredLogger, configure, get_logger, recent
from repro.obs.monitor import (DEFAULT_SLOS, Monitor, MonitorConfig,
                               default_rules)
from repro.obs.profile import ProfileReport, SamplingProfiler, profile_window
from repro.obs.render import critical_path, render_trace
from repro.obs.slo import SLOSpec, evaluate_slo, evaluate_window
from repro.obs.store import SpanStore, configure_store, get_store
from repro.obs.timeseries import (DEFAULT_WINDOWS, MetricsRecorder,
                                  MetricsSnapshot, percentile_from_cumulative,
                                  window_label)
from repro.obs.trace import (TRACE_HEADER, Span, TraceContext, activate,
                             current_trace, new_span_id, new_trace_id,
                             record_span, span)

__all__ = [
    "TRACE_HEADER",
    "Span",
    "TraceContext",
    "activate",
    "current_trace",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "span",
    "SpanStore",
    "configure_store",
    "get_store",
    "StructuredLogger",
    "configure",
    "get_logger",
    "recent",
    "ProfileReport",
    "SamplingProfiler",
    "profile_window",
    "critical_path",
    "render_trace",
    "AlertManager",
    "BurnRateRule",
    "DEFAULT_SLOS",
    "DEFAULT_WINDOWS",
    "MetricsRecorder",
    "MetricsSnapshot",
    "Monitor",
    "MonitorConfig",
    "SLOSpec",
    "default_rules",
    "evaluate_slo",
    "evaluate_window",
    "percentile_from_cumulative",
    "render_dashboard",
    "sparkline",
    "window_label",
]
