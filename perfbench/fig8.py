"""Workload ``fig8_sweep``: the paper's Fig. 8 routing sweep as one batch.

A serial, closed-loop batch through ``repro.service.compile_batch(workers=1)``:
a size-stratified sample of the 71-circuit suite on each of the paper's four
architectures, every circuit routed by CODAR and by SABRE from the shared
reverse-traversal initial layout (the same job specs as
``repro.experiments.speedup``).

The sample is chosen per architecture from the suite sorted by gate count:
one circuit out of the 8 largest (the 3rd to 6th largest, rotating across
architectures: 1662-2100 gates) and one out of every further 5, rotating the
pick across strata and architectures.  The composition is fixed: run time over this
suite is dominated by a few circuits, so a seeded draw of circuits would
change the measured throughput by 10-30% from seed to seed.  The seed sets
the order of the circuit x architecture pairs and the jobs' ``seed`` field,
so every seed submits distinct job keys.  Within a pair the CODAR leg runs
first and pays for the shared layout, as in ``repro.experiments.speedup``,
so the per-job time distribution does not depend on the seed either.

One run starts :data:`SETUPS` fresh interpreters that each set up
(imports, device analysis, a warm-up compile of a circuit outside the suite,
building the batch); the first :data:`PASSES` of them (one in a traced run)
then time one pass over the batch each.  Consecutive passes of the same
batch differed by up to 20% in CPU time on a shared 2-vCPU VM, and a
calibration loop timed around each pass did not follow them, so the run
takes the median of several passes rather than correcting one.  The run reports the median set-up time, the median pass
throughput and percentiles of each job's median time over the passes.

Every time here is CPU time of the pass's process (``time.process_time``,
counted from the process start for the set-up).  The batch is serial and
single-threaded, so on an idle host this equals its wall time; unlike wall
time it leaves out the time the hypervisor runs other guests on the VM's
CPUs, which on a shared 2-vCPU VM reached 12-29% of the time and moved
wall-clock figures by 30% between runs of the same code.

Memo hygiene: every timed pass is the only one in its process, so no timed
job is served by a memo an earlier pass filled; the result cache is fresh,
and the parse-cache counters (and the layout-memo counters of the traced
run) show any leak.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

from common import canonical_outcome, check_routed, peak_rss_mb, percentile

#: Per-architecture averages quoted in Section V-A of the paper.
PAPER_SPEEDUP = {"ibm_q16_melbourne": 1.212, "grid_6x6": 1.241,
                 "ibm_q20_tokyo": 1.214, "google_sycamore54": 1.258}
ROUTERS = ("codar", "sabre")
#: Stratification: one pick among the TOP largest, then one per STRATUM.
TOP = 8
STRATUM = 5
#: The largest-circuit pick of architecture i is the (HEAD_OFFSET + i + 1)-th
#: largest, so the sample keeps circuits of 1662-2100 gates without the
#: 2500-gate random_36_2500, which alone takes about as long as the rest of
#: a pass.
HEAD_OFFSET = 2
SETUPS = 5
PASSES = 5
PASS_TIMEOUT_S = 120.0


def sample_cases() -> list[tuple[str, object]]:
    """The fixed stratified sample: ``[(architecture, BenchmarkCase)]``."""
    from repro.arch.devices import get_device
    from repro.workloads.suite import benchmark_suite

    picks = []
    for arch_index, arch in enumerate(PAPER_SPEEDUP):
        device = get_device(arch)
        cases = sorted(benchmark_suite(max_qubits=device.num_qubits),
                       key=lambda case: (len(case.build()), case.name))
        head, rest = cases[-TOP:], cases[:-TOP]
        picks.append((arch, head[-1 - (HEAD_OFFSET + arch_index) % len(head)]))
        for index in range(0, len(rest), STRATUM):
            stratum = rest[index:index + STRATUM]
            picks.append((arch, stratum[(arch_index + index // STRATUM)
                                        % len(stratum)]))
    return picks


def make_jobs(seed: int) -> tuple[list, list[tuple[str, str, str]]]:
    """The batch of one seed, and an ``(arch, circuit, router)`` label each."""
    from repro.service import make_job

    order = sample_cases()
    random.Random(seed).shuffle(order)
    jobs, labels = [], []
    for arch, case in order:
        for router in ROUTERS:
            jobs.append(make_job(case.build(), arch, router,
                                 layout_strategy="reverse_traversal",
                                 seed=seed))
            labels.append((arch, case.name, router))
    return jobs, labels


def _warm_up() -> None:
    """Device analysis of every architecture and one compile per router."""
    from repro.arch.devices import get_device
    from repro.compiler.analysis import analyze
    from repro.service import compile_batch, make_job
    from repro.workloads.generators import random_circuit

    warm = random_circuit(5, 60, seed=99)
    warm.name = "fig8_warmup"
    jobs = []
    for arch in PAPER_SPEEDUP:
        analyze(get_device(arch))
        jobs += [make_job(warm, arch, router, layout_strategy="reverse_traversal",
                          seed=0) for router in ROUTERS]
    for outcome in compile_batch(jobs, workers=1):
        if not outcome.ok:
            raise RuntimeError(f"warm-up failed: {outcome.error}")


def one_pass(seed: int, traced: bool, timed: bool) -> dict:
    """Set up, then (if ``timed``) time one batch; runs in a fresh interpreter.

    The process's CPU time at the end of set-up includes the interpreter
    start and every import.
    """
    from repro.compiler.analysis import cache_stats as analysis_stats
    from repro.compiler.parse_cache import cache_stats as parse_stats
    from repro.service import ResultCache, compile_batch

    _warm_up()
    jobs, _labels = make_jobs(seed)
    setup_s = time.process_time()
    if not timed:
        return {"setup_s": setup_s}

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer().install()
    cache = ResultCache()
    before = {"parse": parse_stats(), "analysis": analysis_stats()}
    stamps = []
    start = time.process_time()
    outcomes = compile_batch(jobs, workers=1, cache=cache,
                             progress=lambda _line: stamps.append(
                                 time.process_time()))
    elapsed = time.process_time() - start
    if tracer is not None:
        tracer.uninstall()
    after = {"parse": parse_stats(), "analysis": analysis_stats()}
    return {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "per_job_s": [b - a for a, b in zip([start] + stamps[:-1], stamps)],
        "peak_rss_mb": peak_rss_mb(),
        "result_cache_hits": cache.stats.as_dict()["hits"],
        **{memo: {name: after[memo][name] - before[memo][name]
                  for name in ("hits", "misses")} for memo in after},
        "outcomes": [outcome.to_dict() for outcome in outcomes],
        "trace": tracer.snapshot("benchmark") if tracer is not None else None,
    }


def _spawn_pass(root, seed: int, traced: bool, timed: bool) -> dict:
    env = dict(os.environ,
               PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'perfbench'}")
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "fig8.py"), str(seed),
         str(int(traced)), str(int(timed))],
        env=env, cwd=root, check=True, timeout=PASS_TIMEOUT_S,
        stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summaries(outcomes, labels) -> dict:
    """Per-architecture :class:`SpeedupSummary` of the CODAR/SABRE pairs."""
    from repro.experiments.speedup import SpeedupRecord, SpeedupSummary

    legs: dict[tuple[str, str], dict] = {}
    for outcome, (arch, name, router) in zip(outcomes, labels):
        legs.setdefault((arch, name), {})[router] = outcome.summary
    records = {arch: [] for arch in PAPER_SPEEDUP}
    for (arch, name), pair in legs.items():
        codar, sabre = pair["codar"], pair["sabre"]
        records[arch].append(SpeedupRecord(
            benchmark=name, device=arch, num_qubits=codar["qubits"],
            gate_count=codar["original_gates"],
            codar_weighted_depth=codar["weighted_depth"],
            sabre_weighted_depth=sabre["weighted_depth"],
            codar_swaps=codar["swaps"], sabre_swaps=sabre["swaps"],
            codar_runtime_s=codar["runtime_s"],
            sabre_runtime_s=sabre["runtime_s"]))
    return {arch: SpeedupSummary(device=arch, records=rows)
            for arch, rows in records.items()}


def run(root, seed: int, seconds: float, tracer=None) -> dict:
    from repro.experiments.reporting import geometric_mean
    from repro.service import CompileOutcome

    # A traced run's per-layer figures come from one pass: it times only one.
    timed = PASSES if tracer is None else 1
    runs = [_spawn_pass(root, seed, tracer is not None, index < timed)
            for index in range(SETUPS)]
    passes = runs[:timed]
    jobs, labels = make_jobs(seed)
    first = [CompileOutcome.from_dict(data) for data in passes[0]["outcomes"]]

    # ---- correctness: every output, outside the timed passes ------------ #
    failures: dict[int, str] = {}
    for index, (job, outcome) in enumerate(zip(jobs, first)):
        reason = check_routed(job, outcome)
        if reason is not None:
            failures[index] = reason
    # Later passes must reproduce the first byte for byte.
    expected = [canonical_outcome(data) for data in passes[0]["outcomes"]]
    for number, data in enumerate(passes[1:], start=2):
        for index, (want, got) in enumerate(zip(expected, data["outcomes"])):
            if canonical_outcome(got) != want:
                failures.setdefault(index, f"pass {number} differs from pass 1")

    summaries = (_summaries(first, labels)
                 if all(outcome.ok for outcome in first) else {})
    lines = [f"fig8_sweep: {len(jobs)} jobs ({len(jobs) // 2} circuit x "
             f"architecture pairs, CODAR and SABRE), timed serial passes: "
             f"{timed}, each in a fresh interpreter"]
    lines.append("paper fidelity (SABRE / CODAR weighted depth):")
    lines.append(f"  {'architecture':<20} {'n':>3} {'average':>8} "
                 f"{'geomean':>8} {'wins':>5} {'paper':>6}")
    for arch, summary in summaries.items():
        lines.append(f"  {arch:<20} {len(summary.records):>3} "
                     f"{summary.average_speedup:>8.3f} "
                     f"{summary.geomean_speedup:>8.3f} "
                     f"{summary.wins:>5} {PAPER_SPEEDUP[arch]:>6.3f}")
    # No timed job may be served by a memo filled before its pass: every
    # distinct circuit is parsed exactly once and the result cache never hits.
    distinct = len({job.qasm for job in jobs})
    hygienic = all(data["result_cache_hits"] == 0
                   and data["parse"]["misses"] == distinct
                   for data in passes)
    lines.append("memo hygiene per pass: result-cache hits "
                 f"{[data['result_cache_hits'] for data in passes]}, parse "
                 f"misses {[data['parse']['misses'] for data in passes]} for "
                 f"{distinct} distinct circuits -> "
                 f"{'ok' if hygienic else 'LEAK'}")
    lines += [f"correctness failure: {'/'.join(labels[index])}: {reason}"
              for index, reason in sorted(failures.items())[:10]]

    setups = [data["setup_s"] for data in runs]
    per_job = [statistics.median(times)
               for times in zip(*(data["per_job_s"] for data in passes))]
    records = [record for summary in summaries.values()
               for record in summary.records]
    result = {
        "attempted": len(jobs),
        "failed": len(failures),
        "correct": not failures and hygienic,
        "setup_runs": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": len(jobs) / statistics.median(
                data["elapsed_s"] for data in passes),
            "speedup_geomean": (geometric_mean(r.speedup for r in records)
                                if records else 0.0),
            "peak_rss_mb": statistics.median(data["peak_rss_mb"]
                                             for data in passes),
        },
        "extra_metrics": {
            "job_p50_s": (percentile(per_job, 0.5), "s"),
            "job_p90_s": (percentile(per_job, 0.9), "s"),
            "failed_ratio": (len(failures) / len(jobs), "ratio")},
        "counts": {"job_p50_s": len(per_job), "job_p90_s": len(per_job)},
        "lines": lines,
    }
    if tracer is not None:
        # Per-layer counts are those of one pass (the first).
        result["layers"] = {
            "summaries": summaries,
            "swaps_total": sum(outcome.summary["swaps"] for outcome in first
                               if outcome.ok),
            "parse_cache_hit_ratio": _hit_ratio(passes[0]["parse"]),
            "analysis_hit_ratio": _hit_ratio(passes[0]["analysis"]),
            "snapshots": [passes[0]["trace"]],
        }
    return result


def _hit_ratio(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


if __name__ == "__main__":
    # One set-up and pass: ``fig8.py SEED TRACED TIMED``.
    print(json.dumps(one_pass(int(sys.argv[1]), sys.argv[2] == "1",
                              sys.argv[3] == "1")))
