"""Helpers shared by the workloads: exact percentiles, memory, output checks."""

from __future__ import annotations

import json
import math


def percentile(values, fraction: float) -> float:
    """Exact percentile of raw samples, interpolated between order statistics.

    Same definition as ``numpy.percentile(..., method="linear")``; no
    histogram buckets are involved.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def host_ticks() -> tuple[int, int]:
    """``(busy, steal)`` clock ticks of the whole machine, from ``/proc/stat``.

    Steal is time a virtual CPU was ready to run while the hypervisor ran
    another guest on it.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time wanted between two :func:`host_ticks` readings
    that the hypervisor gave to other guests."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal else 0.0


def canonical_outcome(outcome: dict) -> str:
    """An outcome dict as canonical JSON, without its wall-clock fields.

    ``elapsed_s``, the summary's ``runtime_s`` and each pipeline stage's
    ``elapsed_s`` are measurements of one execution; everything else (routed
    QASM, swaps, depths, layouts, seeds) must match byte for byte.
    """
    data = dict(outcome)
    data.pop("elapsed_s", None)
    summary = data.get("summary")
    if isinstance(summary, dict):
        summary = dict(summary)
        summary.pop("runtime_s", None)
        extra = summary.get("extra")
        if isinstance(extra, dict) and "stages" in extra:
            extra = dict(extra)
            extra["stages"] = [{k: v for k, v in stage.items()
                                if k != "elapsed_s"}
                               for stage in extra["stages"]]
            summary["extra"] = extra
        data["summary"] = summary
    return json.dumps(data, sort_keys=True)


def check_routed(job, outcome) -> str | None:
    """Coupling compliance on every output, equivalence up to 10 qubits.

    Returns ``None`` when the routed circuit passes, else the reason.  The
    routed QASM does not carry which SWAPs the router inserted, so they are
    recovered first (:func:`_mark_routing_swaps`) and their count is checked
    against the router's own ``swaps`` figure.
    """
    from repro.mapping.verification import (check_coupling_compliance,
                                            verify_routing)

    if not outcome.ok:
        return f"job failed: {outcome.error_type}: {outcome.error}"
    result = outcome.routing_result(job)
    violations = check_coupling_compliance(result)
    if violations:
        return violations[0]
    if result.original.num_qubits > 10:
        return None
    routing_swaps = _mark_routing_swaps(result)
    if routing_swaps != result.swap_count:
        return (f"{routing_swaps} routing SWAPs recovered, router reported "
                f"{result.swap_count}")
    try:
        verify_routing(result, check_semantics=True, samples=1)
    except AssertionError as exc:
        return str(exc).splitlines()[0]
    return None


def _mark_routing_swaps(result) -> int:
    """Tag the router-inserted SWAPs of ``result.routed``; return their count.

    Walks the routed circuit with the layout starting at the initial one and
    a per-qubit cursor into the original circuit: a SWAP whose two logical
    qubits both have the same original SWAP next is the program's own, any
    other SWAP was inserted by the router and moves the layout.
    """
    from collections import deque
    from dataclasses import replace

    from repro.core.circuit import Circuit

    original = result.original
    pending: list[deque] = [deque() for _ in range(original.num_qubits)]
    for index, gate in enumerate(original.gates):
        for qubit in gate.qubits:
            pending[qubit].append(index)
    layout = result.initial_layout.copy()
    marked = Circuit(result.routed.num_qubits, result.routed.num_clbits,
                     name=result.routed.name)
    count = 0
    for gate in result.routed.gates:
        logical = [layout.logical(q) for q in gate.qubits]
        if gate.is_swap:
            a, b = logical
            program = (a < original.num_qubits and b < original.num_qubits
                       and pending[a] and pending[b]
                       and pending[a][0] == pending[b][0]
                       and original.gates[pending[a][0]].is_swap)
            if not program:
                layout.swap_physical(*gate.qubits)
                marked.append(replace(gate, tag="routing"))
                count += 1
                continue
        for qubit in logical:
            if qubit < original.num_qubits and pending[qubit]:
                pending[qubit].popleft()
        marked.append(gate)
    result.routed = marked
    return count


def emit(result: dict, names: list[str], units: dict[str, str]) -> str:
    """The last stdout line: ``{"correct", "attempted", "failed", "metrics"}``."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(result["metrics"][name]),
                           "unit": units[name]} for name in names},
    })
