"""Benchmark-side tracing: wrappers around each layer's public entry points.

The program under test carries no benchmark hooks.  A traced run instead
replaces a fixed list of public functions and methods with thin wrappers that
record one span per call (name, job key, start, end, process, thread and the
enclosing traced call in the same thread) and count the backend kernel calls.
Spans stay in memory and are written out once, when the process ends.

``Tracer.install`` patches every layer at once, so the same call works in the
benchmark process (fig8 sweep, client side of the serving workloads) and in
the fleet launcher before it forks the shard processes (gateway and shards).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

#: The wrapped entry points: (module, attribute path, span name), where the
#: attribute path is ``Class.method`` or a module-level function name.  The
#: span name's prefix is the layer.
ENTRY_POINTS = (
    ("repro.server.client", "CompileClient.submit", "client.submit"),
    ("repro.server.client", "CompileClient.result", "client.result"),
    ("repro.cluster.gateway", "ClusterGateway.forward", "gateway.forward"),
    ("repro.server.scheduler", "Scheduler.submit", "server.submit"),
    ("repro.service.executor", "execute_job", "service.execute"),
    ("repro.service.cache", "ResultCache.get", "service.cache.get"),
    ("repro.service.cache", "ResultCache.put", "service.cache.put"),
    ("repro.compiler.parse_cache", "parse_cached", "compiler.parse"),
    ("repro.compiler.analysis", "analyze", "compiler.analyze"),
    ("repro.compiler.stages", "analyze", "compiler.analyze"),
    ("repro.compiler.stages", "LayoutStage.run", "compiler.layout"),
    ("repro.compiler.stages", "RouteStage.run", "compiler.route"),
    ("repro.mapping.sabre.remapper", "reverse_traversal_layout",
     "mapping.reverse_traversal"),
)

#: Backend kernels that get a call counter and a time total (no span each).
KERNELS = ("codar_best_swap", "sabre_best_swap")

#: Field positions in a span tuple (spans travel between processes as JSON
#: lists).  ``PARENT`` is the enclosing traced call in the same thread;
#: ``EXTRA`` holds the few per-call details :mod:`layers` needs.
NAME, KEY, START, END, PID, TID, PARENT, EXTRA = range(8)


def _key_of(name: str, args: tuple, kwargs: dict, result) -> str | None:
    """The job key a span belongs to, when the call carries one."""
    if name == "client.submit":
        return result.get("key") if isinstance(result, dict) else None
    if name in ("client.result", "gateway.forward", "service.cache.get",
                "service.cache.put"):
        return args[1] if len(args) > 1 else kwargs.get("key")
    if name == "server.submit":
        return args[1].key if len(args) > 1 else kwargs["job"].key
    if name == "service.execute":
        return args[0].key if args else kwargs["job"].key
    return None


class Tracer:
    """In-memory span recorder for one process (inherited across fork)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.kernels: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            key = _key_of(name, args, kwargs, result)
            extra = tracer._extra(name, args, kwargs, result)
            tracer.spans.append((name, key, start, end, os.getpid(),
                                 threading.get_ident(), parent, extra))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _extra(self, name: str, args: tuple, kwargs: dict, result):
        """Per-span details the layer metrics need (small, JSON-friendly)."""
        if name == "client.submit":
            return bool(kwargs.get("wait", False))
        if name == "gateway.forward":
            return [args[2], args[3]]
        if name == "compiler.layout":
            return args[0].strategy
        if name == "service.cache.get":
            return result is not None
        if name == "server.submit":
            scheduler = args[0]
            return [bool(result[1]), scheduler.queue.depth]
        return None

    def _kernel_wrapper(self, fn, name: str):
        totals = self.kernels[name]
        lock = self._lock

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    totals[0] += 1
                    totals[1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        # An inherited method has no entry of its own: uninstall deletes the
        # shadowing wrapper instead of restoring one.
        self._originals.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        """Wrap every entry point and kernel of every layer."""
        import importlib

        from repro.compiler.backends import backend_names, get_backend

        for module_name, path, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            self._patch(owner, attr, self._span_wrapper(original, name))
        for backend in backend_names():
            cls = type(get_backend(backend))
            for kernel in KERNELS:
                original = getattr(cls, kernel)
                self._patch(cls, kernel, self._kernel_wrapper(
                    original, f"mapping.kernel.{kernel}"))
        self._install_http()
        return self

    def _install_http(self) -> None:
        """Time every served HTTP request (gateway and shards share the class).

        The span's key is the job key: the last path segment of a
        ``GET /jobs|/results/<key>``, or for a ``POST`` the key of the job the
        request submitted or forwarded, taken from the calls traced inside it.
        """
        from http.server import BaseHTTPRequestHandler

        tracer = self
        original = BaseHTTPRequestHandler.handle_one_request

        def handle_one_request(handler):
            stack = tracer._stack()
            spans_before = len(tracer.spans)
            stack.append("http.request")
            start = time.perf_counter()
            try:
                original(handler)
            finally:
                end = time.perf_counter()
                stack.pop()
            command = getattr(handler, "command", None)
            path = getattr(handler, "path", "") or ""
            if not getattr(handler, "raw_requestline", b"") or command is None:
                return
            if command == "GET":
                key = path.rsplit("/", 1)[-1]
            else:
                key = None
                for span in tracer.spans[spans_before:]:
                    if (span[TID] == threading.get_ident()
                            and span[NAME] in ("gateway.forward",
                                               "server.submit")):
                        key = span[KEY]
            tracer.spans.append(("http.request", key, start, end, os.getpid(),
                                 threading.get_ident(), None,
                                 [command, path.split("?", 1)[0]]))

        handle_one_request.__wrapped__ = original
        self._patch(BaseHTTPRequestHandler, "handle_one_request",
                    handle_one_request)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------------ #
    def snapshot(self, role: str) -> dict:
        """Everything this process recorded, plus its compiler cache stats."""
        from repro.compiler.analysis import cache_stats as analysis_stats
        from repro.compiler.parse_cache import cache_stats as parse_stats

        with self._lock:
            kernels = {name: list(totals)
                       for name, totals in self.kernels.items()}
        return {"role": role, "pid": os.getpid(), "spans": list(self.spans),
                "kernels": kernels, "parse_cache": parse_stats(),
                "analysis": analysis_stats()}

    def dump(self, path: str, role: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(role), handle)
