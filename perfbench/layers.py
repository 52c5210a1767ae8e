"""Per-layer metrics of a traced run, and which end-to-end metric each moves.

Layers, by module: ``loadgen`` (this benchmark's generator), ``client``
(``repro.server.client``), ``gateway`` (``repro.cluster.gateway``),
``server`` (``repro.server.http`` / ``scheduler`` / ``queue``), ``service``
(``repro.service.executor`` / ``cache``), ``compiler`` (``parse_cache``,
``analysis``, the layout and route stages) and ``mapping`` (the CODAR / SABRE
routers' backend kernels).

A layer's self time is the time spent in its traced calls minus the part
covered by the next layer down: the client's calls minus the gateway's
requests for them, the gateway's requests minus the shard requests they
forward, and so on down to the kernels.  The router loop outside the kernels
counts as ``compiler`` time.
"""

from __future__ import annotations

from collections import defaultdict

from common import percentile
from tracing import END, EXTRA, KEY, NAME, PARENT, PID, START

ARCHS = ("ibm_q16_melbourne", "grid_6x6", "ibm_q20_tokyo", "google_sycamore54")
_ROUTE = ("fig8_sweep: jobs_per_s; serve_distinct: jobs_per_s (route is "
          "about a third of a served job's CPU) and the printed p50 latency "
          "slightly; serve_hot: nothing")
_PATH = ("serve_*: jobs_per_s and the printed latency and knee; "
         "fig8_sweep: nothing")
_QUEUE = ("serve_distinct: the printed job_p90_s and knee (queue wait rises "
          "before throughput stops rising); no gated metric")
_REUSE = ("serve_hot: jobs_per_s and the printed job_p50_s and knee; "
          "serve_distinct and fig8_sweep: must read 0")
_SELF = "its share of each workload's blocking path"

#: name -> (unit, the end-to-end metric it is expected to move, by workload).
PER_LAYER = {
    "compiler.stage.layout_s": ("s", _ROUTE),
    "compiler.stage.layout_p50_s": ("s", _ROUTE),
    "compiler.stage.route_s": ("s", _ROUTE),
    "compiler.stage.route_p50_s": ("s", _ROUTE),
    "compiler.layout.memo_hit_ratio": (
        "ratio", "fig8_sweep: above 0.5 means a memo leaked across passes"),
    "mapping.kernel.codar_best_swap.calls": ("count", _ROUTE),
    "mapping.kernel.sabre_best_swap.calls": ("count", _ROUTE),
    "mapping.swaps_total": ("count", _ROUTE),
    **{f"mapping.speedup_geomean.{arch}": (
        "ratio", "fig8_sweep: speedup_geomean; a pure perf change leaves it "
        "exactly unchanged; 0 on serve_*") for arch in ARCHS},
    **{f"mapping.codar_wins.{arch}": (
        "count", "fig8_sweep: speedup_geomean; a pure perf change leaves it "
        "exactly unchanged; 0 on serve_*") for arch in ARCHS},
    "compiler.parse_cache.hit_ratio": (
        "ratio", "fig8_sweep: setup_s against jobs_per_s (work moved into "
        "set-up)"),
    "compiler.analysis.hit_ratio": (
        "ratio", "fig8_sweep: setup_s against jobs_per_s (work moved into "
        "set-up)"),
    "client.submit.p50_s": ("s", _PATH),
    "client.submit.p99_s": ("s", _PATH),
    "client.polls_per_job": ("count", _PATH),
    "gateway.forward.self_p50_s": ("s", _PATH),
    "gateway.forward.self_p99_s": ("s", _PATH),
    "gateway.failovers": ("count", _PATH),
    "server.submit.p50_s": ("s", _PATH),
    "server.queue.wait_p50_s": ("s", _QUEUE),
    "server.queue.wait_p99_s": ("s", _QUEUE),
    "server.queue.depth_max": ("count", _QUEUE),
    "service.executor.busy_s": ("s", _QUEUE),
    "service.cache.hit_ratio": ("ratio", _REUSE),
    "server.coalesced_ratio": ("ratio", _REUSE),
    "loadgen.late_p99_s": (
        "s", "validity of serve_* numbers: the generator, not the system, "
        "sets the knee when this nears the limit"),
    "loadgen.cpu_s_per_job": (
        "s", "validity of serve_* numbers: generator cost per job"),
    **{f"layer.{layer}.self_s": ("s", _SELF)
       for layer in ("client", "gateway", "server", "service", "compiler",
                     "mapping")},
    **{f"trace.overhead.{name}": (
        unit, "tracing cost: traced minus untraced value")
       for name, unit in (("setup_s", "s"), ("jobs_per_s", "jobs/s"),
                          ("speedup_geomean", "ratio"),
                          ("peak_rss_mb", "MB"))},
}
UNITS = {name: unit for name, (unit, _moves) in PER_LAYER.items()}


def moves(name: str) -> str:
    return PER_LAYER[name][1]


def _p(values, fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(workload: str, result: dict) -> dict:
    """Every :data:`PER_LAYER` metric except the tracing overhead."""
    layers = result["layers"]
    snapshots = layers["snapshots"]
    spans = defaultdict(list)          # name -> [(duration, span)]
    roles = {snap["pid"]: snap["role"] for snap in snapshots}
    for snap in snapshots:
        for span in snap["spans"]:
            spans[span[NAME]].append((span[END] - span[START], span))
    kernels = defaultdict(lambda: [0, 0.0])
    for snap in snapshots:
        for name, (calls, seconds) in snap["kernels"].items():
            kernels[name][0] += calls
            kernels[name][1] += seconds

    def durations(name, keep=lambda span: True):
        return [d for d, span in spans[name] if keep(span)]

    top_route = durations("compiler.route",
                          lambda s: s[PARENT] != "mapping.reverse_traversal")
    layout = durations("compiler.layout")
    memo_calls = sum(1 for _d, s in spans["compiler.layout"]
                     if s[EXTRA] == "reverse_traversal")
    top_compiler = sum(d for name in ("compiler.parse", "compiler.analyze",
                                      "compiler.layout", "compiler.route")
                       for d, s in spans[name]
                       if not (s[PARENT] or "").startswith(("compiler.",
                                                            "mapping.")))
    kernel_s = sum(seconds for _calls, seconds in kernels.values())
    service_s = sum(d for name in ("service.execute", "service.cache.get",
                                   "service.cache.put")
                    for d, s in spans[name]
                    if not (s[PARENT] or "").startswith("service."))

    def requests(role: str):
        return [(d, s) for d, s in spans["http.request"]
                if roles.get(s[PID]) == role
                and s[EXTRA][1].startswith(("/jobs", "/results"))]

    gateway_requests = requests("gateway")
    shard_requests = requests("shard")
    client_s = sum(durations("client.submit") + durations("client.result"))
    client_covered = sum(d for d, s in gateway_requests
                         if s[EXTRA] == ["POST", "/jobs"]
                         or s[EXTRA][1].startswith("/results/"))
    forward_self = _forward_self(spans["gateway.forward"], shard_requests)
    gets = spans["service.cache.get"]
    submits = spans["server.submit"]
    # Blocking submits of the closed-loop blocks include the whole job.
    submit_durations = durations("client.submit", lambda span: not span[EXTRA])

    metrics = {
        "compiler.stage.layout_s": sum(layout),
        "compiler.stage.layout_p50_s": _p(layout, 0.5),
        "compiler.stage.route_s": sum(top_route),
        "compiler.stage.route_p50_s": _p(top_route, 0.5),
        "compiler.layout.memo_hit_ratio": _ratio(
            memo_calls - len(spans["mapping.reverse_traversal"]), memo_calls),
        "mapping.kernel.codar_best_swap.calls":
            kernels["mapping.kernel.codar_best_swap"][0],
        "mapping.kernel.sabre_best_swap.calls":
            kernels["mapping.kernel.sabre_best_swap"][0],
        "mapping.swaps_total": layers["swaps_total"],
        "client.submit.p50_s": _p(submit_durations, 0.5),
        "client.submit.p99_s": _p(submit_durations, 0.99),
        "client.polls_per_job": _ratio(len(spans["client.result"]),
                                       len(submit_durations)),
        "gateway.forward.self_p50_s": _p(forward_self, 0.5),
        "gateway.forward.self_p99_s": _p(forward_self, 0.99),
        "gateway.failovers": (layers.get("health") or {}).get(
            "gateway", {}).get("failovers", 0),
        "server.submit.p50_s": _p(durations("server.submit"), 0.5),
        "server.queue.depth_max": max((s[EXTRA][1] for _d, s in submits),
                                      default=0),
        "service.executor.busy_s": sum(durations("service.execute")),
        "service.cache.hit_ratio": _ratio(sum(1 for _d, s in gets if s[EXTRA]),
                                          len(gets)),
        "server.coalesced_ratio": _ratio(sum(1 for _d, s in submits
                                             if s[EXTRA][0]), len(submits)),
        "layer.client.self_s": client_s - client_covered,
        "layer.gateway.self_s": (sum(d for d, _s in gateway_requests)
                                 - sum(d for d, _s in shard_requests)),
        "layer.server.self_s": sum(d for d, _s in shard_requests),
        "layer.service.self_s": service_s - top_compiler,
        "layer.compiler.self_s": top_compiler - kernel_s,
        "layer.mapping.self_s": kernel_s,
    }
    for arch in ARCHS:
        summary = layers.get("summaries", {}).get(arch)
        metrics[f"mapping.speedup_geomean.{arch}"] = (
            summary.geomean_speedup if summary else 0.0)
        metrics[f"mapping.codar_wins.{arch}"] = summary.wins if summary else 0
    if workload == "fig8_sweep":
        metrics["compiler.parse_cache.hit_ratio"] = \
            layers["parse_cache_hit_ratio"]
        metrics["compiler.analysis.hit_ratio"] = layers["analysis_hit_ratio"]
        for name in ("server.queue.wait_p50_s", "server.queue.wait_p99_s",
                     "loadgen.late_p99_s", "loadgen.cpu_s_per_job"):
            metrics[name] = 0.0
    else:
        shards = [snap for snap in snapshots if snap["role"] == "shard"]
        for name, field in (("parse_cache", "compiler.parse_cache.hit_ratio"),
                            ("analysis", "compiler.analysis.hit_ratio")):
            hits = sum(snap[name]["hits"] for snap in shards)
            misses = sum(snap[name]["misses"] for snap in shards)
            metrics[field] = _ratio(hits, hits + misses)
        steps = [step for step in layers["steps"] if not step.closed]
        waits = [w for step in steps for w in step.waits]
        metrics["server.queue.wait_p50_s"] = _p(waits, 0.5)
        metrics["server.queue.wait_p99_s"] = _p(waits, 0.99)
        metrics["loadgen.late_p99_s"] = _p(
            [s.sent - s.due for step in steps for s in step.subs], 0.99)
        metrics["loadgen.cpu_s_per_job"] = _ratio(
            sum(step.cpu_s for step in steps),
            sum(len(step.subs) for step in steps))
    return metrics


def _forward_self(forwards, shard_requests) -> list[float]:
    """Each forward's time minus the shard request it covers.

    Joined on (job key, method, path) in time order: the n-th forward of a
    key's ``GET /results/<key>`` covers the n-th such request on a shard.
    """
    served = defaultdict(list)
    for duration, span in sorted(shard_requests,
                                 key=lambda item: item[1][START]):
        served[(span[KEY], *span[EXTRA])].append(duration)
    cursor = defaultdict(int)
    selves = []
    for duration, span in sorted(forwards, key=lambda item: item[1][START]):
        method, path = span[EXTRA]
        join = (span[KEY], method, path.split("?", 1)[0])
        index = cursor[join]
        if index < len(served[join]):
            selves.append(duration - served[join][index])
            cursor[join] += 1
    return selves
