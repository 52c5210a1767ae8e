"""Workloads ``serve_distinct`` and ``serve_hot``: serving through a fleet.

The system under test is the gateway and the two shard processes that
``repro cluster serve`` starts with its defaults.  The generator is this
process and uses two threads, each with its own
:class:`~repro.server.client.CompileClient` (one HTTP connection at a time).

``serve_distinct`` submits distinct jobs from ``repro.loadgen.WorkloadPool``
(tokyo, CODAR, 2-6 qubits, a unique seed per job), so result caches never
hit.  ``serve_hot`` sends 80% of the submissions of every block (an exact
count, at seeded positions) to a pre-warmed hot set of 16 jobs with
Zipf(1.1) popularity and the rest to distinct jobs.  Hot jobs are answered
from cache in about two thirds of a distinct job's time, so the share is set
for the p90 to fall in the middle of the distinct jobs' latencies: at nine
in ten the p90 sits on the boundary between the two groups and swings with
the slowest cache hit.

After set-up and an untimed warm-up block at the reference rate, a run
measures three parts:

* :data:`ROUNDS` closed-loop blocks: both threads submit :data:`LOOP_JOBS`
  jobs back to back with a blocking ``wait``.  ``jobs_per_s`` is the median
  over the blocks of jobs served per CPU second spent by the whole serving
  path (this process's clients, the gateway and the shards, read from
  ``/proc``).  CPU time leaves out the time the hypervisor runs other guests
  on a shared VM's CPUs, which cut wall-clock throughput by a third in such
  periods; on a CPU-bound fleet it is the capacity per core.  A block during
  which the hypervisor gave more than :data:`STEAL_LIMIT` of the CPU time the
  VM wanted to other guests (``/proc/stat`` steal) is disturbed: the run adds
  blocks, within a budget, until :data:`ROUNDS` are not and uses the
  :data:`ROUNDS` least disturbed.  Every block is printed with its steal.
* :data:`REF_BLOCKS` reference blocks, each an open loop of :data:`REF_JOBS`
  Poisson arrivals at the workload's fixed reference rate
  (:data:`REF_RATE`, well below the knee).  One thread submits each job at
  its due time without waiting, the other polls ``GET /results/<key>`` for
  the oldest outstanding jobs.  A job's latency runs from its due time until
  its result is in hand, so a stalled generator or system charges every
  later job too.  ``job_p50_s`` / ``job_p90_s`` are the medians over the
  blocks of each block's exact percentiles.  They are printed, not gated:
  with 30-50% of the VM's CPU time stolen by other guests they read two to
  three times their value on an idle host.
* the knee search (below).

``setup_s`` is the CPU time of starting the fleet (interpreter, imports, the
shard processes) and of the clients and fleet serving the warm-up jobs: the
median of :data:`SETUP_REPEATS` fresh fleets, the last of which serves the
measured blocks.

The knee is the highest offered rate whose p95 latency meets
:data:`LIMIT_S`; it is printed with every step, not gated, because a
threshold on a tail percentile moves with the host by more than any bound.
Each knee step offers :data:`STEP_JOBS` jobs as a Poisson process.  The walk
starts at twice the reference rate and doubles it until a step misses,
then bisects (within :data:`BISECTION_BUDGET_S`) between the last passing
and the first failing rate.  A step passes when its exact p95 latency is
within the limit, nothing failed, and its backlog when the last job was sent
stays below max(5, rate x limit).  A step whose miss is explained by the generator's own lateness (the part not
spent waiting for the system to accept the previous job) is marked invalid
and counts as failing.  A step with :data:`ABORT_LATE_JOBS` jobs already
later than the limit stops offering load.  The knee is the rate where p95
crosses the limit, interpolated between the last passing and the first
failing rate.
"""

from __future__ import annotations

import glob
import http.client
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
from dataclasses import dataclass, field, replace

from common import (canonical_outcome, host_ticks, peak_rss_mb, percentile,
                    steal_share)

LIMIT_S = 0.25           #: p95 latency limit of a passing knee step
#: jobs/s of the reference blocks: about two fifths of the knee for distinct
#: jobs, a third for the cheaper hot mix.
REF_RATE = {"serve_distinct": 30.0, "serve_hot": 60.0}
ROUNDS = 4               #: closed-loop blocks the metrics use
MAX_ROUNDS = 6
#: A block during which more of the CPU time the VM wanted went to other
#: guests than this is disturbed: the run adds blocks (up to MAX_ROUNDS and
#: ROUNDS_BUDGET_S) until ROUNDS are not, and keeps the ROUNDS least disturbed.
STEAL_LIMIT = 0.05
ROUNDS_BUDGET_S = 20.0
REF_BLOCKS = 3
REF_JOBS = 100           #: jobs per reference block: p90 has 10 beyond it
#: jobs per closed-loop block: two to three seconds of it on an idle 2-vCPU
#: host, so that the CPU time read from ``/proc`` in 10 ms ticks and the
#: fleet's background work are small beside it.
LOOP_JOBS = {"serve_distinct": 200, "serve_hot": 600}
LOOP_CLIENTS = 2
WARM_STEP_JOBS = 30      #: untimed open-loop block before the first round
WALK_START = 2.0         #: the knee walk starts at this multiple of REF_RATE
GROWTH = 2.0             #: geometric walk factor
BISECTIONS = 2
#: No bisection step starts later than this after the walk: on a slowed host
#: the steps near a low knee take long, and the knee is not gated.
BISECTION_BUDGET_S = 8.0
MAX_DOUBLINGS = 6
STEP_JOBS = 200          #: jobs per knee step: p95 has 10 samples beyond it
HOT_KEYS = 16
HOT_SHARE = 0.8
ZIPF_S = 1.1
WARM_JOBS = 12           #: distinct jobs compiled by every set-up
SETUP_REPEATS = 3
POLL_WINDOW = 8          #: oldest outstanding jobs polled per round
JOB_TIMEOUT_S = 10.0
#: Once this many of a step's jobs are later than the limit (three times the
#: eleven that already decide a p95 miss of 200), the step stops offering
#: load: it is a miss whatever the rest do, and an overload backlog only
#: lengthens the run.
ABORT_LATE_JOBS = 33
FLEET_START_TIMEOUT_S = 60.0
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, urllib.error.URLError)


class Fleet:
    """A gateway and two shards, as ``repro cluster serve --port 0`` runs them.

    The CLI's defaults are the fleet under test: 2 shards with 2 workers each,
    queue bound 256, rendezvous placement, monitoring on.  Its standard error
    goes to a file in the checkout, read for the gateway URL.
    """

    def __init__(self, root, trace_dir: str | None = None):
        if trace_dir:
            command = [sys.executable, str(root / "perfbench" / "fleet.py"),
                       trace_dir]
        else:
            command = [sys.executable, "-m", "repro.cli", "cluster", "serve",
                       "--port", "0"]
        self._log = tempfile.NamedTemporaryFile(
            "w", prefix=".perfbench-fleet-", suffix=".log", dir=root,
            delete=False)
        self.process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        deadline = time.monotonic() + FLEET_START_TIMEOUT_S
        while True:
            with open(self._log.name, encoding="utf-8") as handle:
                found = re.search(r"# gateway on (\S+)", handle.read())
            if found:
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the fleet did not start serving")
            time.sleep(0.02)
        self.url = found.group(1)
        self.pids = [self.process.pid] + _children(self.process.pid)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the gateway and every shard."""
        ticks = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM: the CLI drains and stops the gateway and every shard."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        if os.path.exists(self._log.name):
            os.unlink(self._log.name)


def _children(pid: int) -> list[int]:
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as f:
            children += [int(child) for child in f.read().split()]
    return children


class JobSource:
    """The workload's job stream; every seed namespace is disjoint."""

    def __init__(self, workload: str, seed: int):
        from repro.loadgen import WorkloadPool

        self.rng = random.Random(seed)
        self.distinct = WorkloadPool(seed=3 * seed)
        self.hot = []
        if workload == "serve_hot":
            hot_pool = WorkloadPool(seed=3 * seed + 1)
            self.hot = [hot_pool.next_job() for _ in range(HOT_KEYS)]
            self.weights = [1.0 / rank ** ZIPF_S
                            for rank in range(1, HOT_KEYS + 1)]

    def take(self, count: int) -> list:
        """``count`` jobs; on ``serve_hot`` exactly ``HOT_SHARE`` of them hot."""
        hot = set()
        if self.hot:
            hot = set(self.rng.sample(range(count), round(count * HOT_SHARE)))
        return [self.rng.choices(self.hot, self.weights)[0] if index in hot
                else self.distinct.next_job() for index in range(count)]


@dataclass
class Submission:
    job: object
    due: float                       #: absolute perf_counter due time
    key: str | None = None
    free: float | None = None        #: when the submitting thread was free
    sent: float | None = None
    accepted: float | None = None
    done: float | None = None
    outcome: dict | None = None
    error: str | None = None


@dataclass
class Step:
    rate: float
    subs: list = field(default_factory=list)
    backlog: int = 0
    polls: int = 0
    cpu_s: float = 0.0
    gateway_p95: dict = field(default_factory=dict)
    waits: list = field(default_factory=list)
    stopped_early: bool = False
    closed: bool = False             #: a closed-loop block, not a rate step
    steal: float | None = None       #: steal share of a closed-loop block
    used: bool = False               #: a closed-loop block the metrics use
    wall_s: float = 0.0
    system_cpu_s: float = 0.0        #: clients + gateway + shards

    @property
    def jobs_per_cpu_s(self) -> float:
        return len(self.subs) / self.system_cpu_s

    @property
    def latencies(self) -> list[float]:
        return [s.done - s.due for s in self.subs if s.error is None]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.subs if s.error is not None)

    def quantile(self, fraction: float) -> float:
        latencies = self.latencies
        return percentile(latencies, fraction) if latencies else math.inf

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def late_p99(self) -> float:
        """p99 of how late jobs were sent, whatever the cause."""
        return percentile([s.sent - s.due for s in self.subs], 0.99)

    @property
    def own_late_p99(self) -> float:
        """p99 lateness the generator caused itself: the part not spent
        waiting for the previous submission's reply (which is the system's)."""
        return percentile([s.sent - max(s.due, s.free) for s in self.subs],
                          0.99)

    @property
    def valid(self) -> bool:
        """False when the generator's own lateness explains a miss."""
        own = self.own_late_p99
        return not (own > LIMIT_S / 4 and self.p95 > LIMIT_S
                    and self.p95 - own <= LIMIT_S)

    @property
    def passed(self) -> bool:
        return (self.failed == 0 and self.p95 <= LIMIT_S and self.valid
                and self.backlog <= max(5.0, self.rate * LIMIT_S))


def run_step(url: str, jobs: list, rate: float, rng: random.Random) -> Step:
    """Offer ``jobs`` as a Poisson process at ``rate``; collect every result."""
    from repro.server.client import CompileClient, ServerError

    submitter = CompileClient(url, retries=0, timeout=JOB_TIMEOUT_S)
    poller = CompileClient(url, retries=0, timeout=JOB_TIMEOUT_S)
    gaps = [rng.expovariate(1.0) for _ in jobs]
    scale = len(jobs) / rate / sum(gaps)
    step = Step(rate=rate)
    lock = threading.Lock()
    outstanding: list[Submission] = []  #: guarded by lock
    sent_all = threading.Event()

    def finish(key: str, polled_at: float, **fields) -> None:
        with lock:
            for sub in [s for s in outstanding
                        if s.key == key and s.accepted <= polled_at]:
                for name, value in fields.items():
                    setattr(sub, name, value)
                outstanding.remove(sub)

    def poll() -> None:
        while True:
            with lock:
                window = outstanding[:POLL_WINDOW]
            if not window:
                if sent_all.is_set():
                    return
                time.sleep(0.0005)
                continue
            progressed = False
            for key in dict.fromkeys(sub.key for sub in window):
                polled_at = time.perf_counter()
                step.polls += 1
                try:
                    payload = poller.result(key)
                except ServerError as exc:
                    if exc.status == 202:
                        continue
                    finish(key, polled_at, done=time.perf_counter(),
                           error=f"HTTP {exc.status}")
                except _TRANSPORT_ERRORS as exc:
                    finish(key, polled_at, done=time.perf_counter(),
                           error=type(exc).__name__)
                else:
                    outcome = payload["outcome"]
                    finish(key, polled_at, done=time.perf_counter(),
                           outcome=outcome,
                           error=(None if outcome["status"] == "ok"
                                  else f"job error: {outcome['error']}"))
                progressed = True
            deadline = time.perf_counter() - JOB_TIMEOUT_S
            with lock:
                for sub in [s for s in outstanding if s.accepted < deadline]:
                    sub.done, sub.error = time.perf_counter(), "timeout"
                    outstanding.remove(sub)
            if not progressed:
                time.sleep(0.001)

    poll_thread = threading.Thread(target=poll, name="perfbench-poller")
    cpu_start = time.process_time()
    start = time.perf_counter() + 0.01
    offset = 0.0
    for job, gap in zip(jobs, gaps):
        offset += gap * scale
        step.subs.append(Submission(job=job, due=start + offset))
    poll_thread.start()
    free = start
    try:
        for index, sub in enumerate(step.subs):
            now = time.perf_counter()
            late = sum(1 for s in step.subs[:index]
                       if (s.done or now) - s.due > LIMIT_S)
            if late >= ABORT_LATE_JOBS:
                step.subs, step.stopped_early = step.subs[:index], True
                break
            sub.free = free
            delay = sub.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sub.sent = time.perf_counter()
            try:
                sub.key = submitter.submit(sub.job)["key"]
            except ServerError as exc:
                sub.done, sub.error = time.perf_counter(), f"HTTP {exc.status}"
            except _TRANSPORT_ERRORS as exc:
                sub.done, sub.error = time.perf_counter(), type(exc).__name__
            else:
                sub.accepted = time.perf_counter()
                with lock:
                    outstanding.append(sub)
            free = time.perf_counter()
        with lock:
            step.backlog = len(outstanding)
    finally:
        sent_all.set()
        poll_thread.join()
    step.cpu_s = time.process_time() - cpu_start
    return step


def run_closed_loop(fleet: Fleet, jobs: list) -> Step:
    """Both clients submit their share of ``jobs`` back to back, each
    waiting for its result; the block's CPU time covers the whole path."""
    from repro.server.client import CompileClient, ServerError

    step = Step(rate=0.0, closed=True,
                subs=[Submission(job=job, due=0.0) for job in jobs])

    def client_loop(subs: list[Submission]) -> None:
        client = CompileClient(fleet.url, retries=0, timeout=JOB_TIMEOUT_S)
        for sub in subs:
            sub.due = sub.free = sub.sent = time.perf_counter()
            try:
                reply = client.submit(sub.job, wait=True,
                                      timeout=JOB_TIMEOUT_S)
            except ServerError as exc:
                sub.error = f"HTTP {exc.status}"
            except _TRANSPORT_ERRORS as exc:
                sub.error = type(exc).__name__
            else:
                sub.key, sub.outcome = reply["key"], reply.get("outcome")
                if sub.outcome is None:
                    sub.error = "timeout"
                elif sub.outcome["status"] != "ok":
                    sub.error = f"job error: {sub.outcome['error']}"
            sub.accepted = sub.done = time.perf_counter()

    threads = [threading.Thread(target=client_loop, name="perfbench-client",
                                args=(step.subs[index::LOOP_CLIENTS],))
               for index in range(LOOP_CLIENTS)]
    cpu_start = time.process_time()
    fleet_start = fleet.cpu_s()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.wall_s = time.perf_counter() - start
    step.cpu_s = time.process_time() - cpu_start
    step.system_cpu_s = step.cpu_s + fleet.cpu_s() - fleet_start
    step.rate = len(jobs) / step.wall_s
    return step


def _scrape_gateway_p95(url: str) -> dict:
    """The p95 gauges the gateway's own ``/metrics`` reports (bucket bounds)."""
    from repro.server.client import CompileClient

    samples = CompileClient(url, retries=2).metrics()
    return {name: samples.get(f"repro_cluster_job_{name}_seconds_p95", 0.0)
            for name in ("wait", "service")}


def _queue_waits(url: str, step: Step) -> list[float]:
    """``wait_s`` of every job the step submitted (``GET /jobs/<key>``)."""
    from repro.server.client import CompileClient

    client = CompileClient(url, retries=2)
    waits = []
    for key in dict.fromkeys(s.key for s in step.subs if s.key):
        snapshot = client.status(key)
        if "wait_s" in snapshot:
            waits.append(snapshot["wait_s"])
    return waits


def _knee(lo: Step | None, hi: Step | None) -> float:
    """Rate where p95 reaches the limit, between ``lo`` (pass), ``hi`` (fail)."""
    if lo is None:
        return 0.0
    if (hi is None or hi.failed or not hi.valid
            or not math.isfinite(hi.p95) or hi.p95 <= lo.p95):
        return lo.rate
    share = min(1.0, max(0.0, (LIMIT_S - lo.p95) / (hi.p95 - lo.p95)))
    return lo.rate + (hi.rate - lo.rate) * share


def _warm(url: str, jobs: list) -> None:
    from repro.server.client import CompileClient

    client = CompileClient(url, retries=2)
    for job in jobs:
        outcome = client.compile(job, timeout=30.0)
        if not outcome.ok:
            raise RuntimeError(f"warm-up job failed: {outcome.error}")


def run(root, workload: str, seed: int, seconds: float, tracer=None) -> dict:
    from repro.experiments.reporting import geometric_mean
    from repro.loadgen import WorkloadPool
    from repro.service import compile_batch
    from repro.service.executor import execute_job

    source = JobSource(workload, seed)
    ref_rate = REF_RATE[workload]
    trace_dir = (tempfile.mkdtemp(prefix=".perfbench-trace-", dir=root)
                 if tracer is not None else None)
    setups = []
    fleet = None
    steps: list[Step] = []
    rounds: list[Step] = []          #: closed-loop blocks
    try:
        for attempt in range(SETUP_REPEATS):
            warm_pool = WorkloadPool(seed=3 * seed + 2)
            started = time.process_time()
            fleet = Fleet(root, trace_dir if attempt == SETUP_REPEATS - 1
                          else None)
            _warm(fleet.url, [warm_pool.next_job() for _ in range(WARM_JOBS)]
                  + source.hot)
            setups.append(fleet.cpu_s() + time.process_time() - started)
            if attempt < SETUP_REPEATS - 1:
                fleet.stop()

        rng = random.Random(seed)
        if tracer is not None:
            tracer.install()

        def measure(rate: float, jobs: int = STEP_JOBS) -> Step:
            step = run_step(fleet.url, source.take(jobs), rate, rng)
            step.gateway_p95 = _scrape_gateway_p95(fleet.url)
            if tracer is not None:
                step.waits = _queue_waits(fleet.url, step)
            steps.append(step)
            return step

        try:
            warm_step = measure(ref_rate, WARM_STEP_JOBS)
            deadline = time.monotonic() + ROUNDS_BUDGET_S
            while len(rounds) < MAX_ROUNDS:
                before = host_ticks()
                loop = run_closed_loop(fleet,
                                       source.take(LOOP_JOBS[workload]))
                loop.steal = steal_share(before, host_ticks())
                steps.append(loop)
                rounds.append(loop)
                clean = sum(1 for loop in rounds if loop.steal <= STEAL_LIMIT)
                if clean >= ROUNDS or (len(rounds) >= ROUNDS
                                       and time.monotonic() > deadline):
                    break
            loops = sorted(rounds, key=lambda loop: loop.steal)[:ROUNDS]
            for loop in loops:
                loop.used = True
            references = [measure(ref_rate, REF_JOBS)
                          for _ in range(REF_BLOCKS)]
            lo = hi = None
            rate = ref_rate * WALK_START
            for _ in range(MAX_DOUBLINGS):
                step = measure(rate)
                if step.passed:
                    lo, rate = step, rate * GROWTH
                else:
                    hi, rate = step, rate / GROWTH
                if lo is not None and hi is not None:
                    break
            deadline = time.monotonic() + BISECTION_BUDGET_S
            for _ in range(BISECTIONS):
                if lo is None or hi is None or time.monotonic() > deadline:
                    break
                step = measure(math.sqrt(lo.rate * hi.rate))
                if step.passed:
                    lo = step
                else:
                    hi = step
        finally:
            if tracer is not None:
                tracer.uninstall()
        health = _gateway_health(fleet.url)
        rss = fleet.peak_rss_mb()
        fleet.stop()  # the shards write their spans as they stop
        snapshots = []
        for path in sorted(glob.glob(os.path.join(trace_dir or "",
                                                  "spans-*.json"))):
            with open(path, encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    finally:
        if fleet is not None:
            fleet.stop()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)

    # ---- correctness: every served result against a direct execution ---- #
    served: dict[str, tuple[object, set, int]] = {}
    for step in steps:
        for sub in step.subs:
            if sub.error is None:
                job, seen, count = served.get(sub.key, (sub.job, set(), 0))
                seen.add(canonical_outcome(sub.outcome))
                served[sub.key] = (job, seen, count + 1)
    wrong = 0
    wrong_keys = []
    codar_depth: dict[str, tuple[object, float]] = {}
    direct = compile_batch([job for job, _seen, _count in served.values()],
                           workers=2)
    for (key, (job, seen, count)), outcome in zip(served.items(), direct):
        if seen != {canonical_outcome(outcome.to_dict())}:
            wrong += count
            wrong_keys.append(key)
            continue
        summary = json.loads(next(iter(seen)))["summary"]
        codar_depth.setdefault(job.circuit_name,
                               (job, summary["weighted_depth"]))
    ratios = []
    for job, codar_wd in codar_depth.values():
        baseline = execute_job(replace(job, router="sabre"))
        ratios.append(baseline.summary["weighted_depth"] / codar_wd)

    attempted = sum(len(step.subs) for step in steps)
    failed = sum(step.failed for step in steps) + wrong
    knee = _knee(lo, hi)
    below_knee_failures = sum(step.failed for step in steps
                              if not step.closed and step.rate <= knee)
    lines = [f"{workload}: {ROUNDS} closed-loop blocks ({LOOP_JOBS[workload]} "
             f"jobs, {LOOP_CLIENTS} clients), {REF_BLOCKS} reference blocks "
             f"({REF_JOBS} Poisson arrivals at {ref_rate} jobs/s), a knee search "
             f"({STEP_JOBS} jobs per step; limit p95 <= {LIMIT_S} s)",
             f"  {'rate':>7} {'n':>4} {'fail':>4} {'p50_s':>8} {'p95_s':>8} "
             f"{'late_p99':>8} {'own_p99':>8} {'backlog':>7} {'polls/job':>9} "
             f"{'cpu_ms/job':>10} "
             f"{'gw_wait95':>9} {'gw_svc95':>8}  verdict"]
    for step in steps:
        verdict = ("warm-up" if step is warm_step else
                   f"closed loop: {step.jobs_per_cpu_s:.1f} jobs per CPU s"
                   if step.closed else
                   "reference" if any(step is ref for ref in references) else
                   "pass" if step.passed else
                   "invalid (generator-bound)" if not step.valid else
                   "miss (stopped early)" if step.stopped_early else "miss")
        gateway = (f"{step.gateway_p95['wait']:>9.4f} "
                   f"{step.gateway_p95['service']:>8.4f}" if step.gateway_p95
                   else f"{'-':>9} {'-':>8}")
        lines.append(
            f"  {step.rate:>7.2f} {len(step.subs):>4} {step.failed:>4} "
            f"{step.quantile(0.5):>8.4f} "
            f"{step.p95:>8.4f} {step.late_p99:>8.4f} "
            f"{step.own_late_p99:>8.4f} {step.backlog:>7} "
            f"{step.polls / len(step.subs):>9.2f} "
            f"{1000 * step.cpu_s / len(step.subs):>10.3f} "
            f"{gateway}  {verdict}")
        if step.steal is not None:
            lines[-1] += (f" (steal {100 * step.steal:.1f}%"
                          f"{'' if step.used else ', not used'})")
    lines.append(f"knee: {knee:.2f} jobs/s (last pass "
                 f"{lo.rate if lo else 0:.2f}, first miss "
                 f"{hi.rate if hi else math.nan:.2f} jobs/s)")
    if wrong_keys:
        lines.append(f"correctness: {len(wrong_keys)} served results differ "
                     "from a direct execute_job")
    result = {
        "attempted": attempted,
        "failed": failed,
        # No closed-loop or reference block may fail (the latter run well
        # below the knee), and a run with no passing step has no knee.
        "correct": (not wrong and lo is not None and below_knee_failures == 0
                    and not any(step.failed for step in rounds + references)),
        "setup_runs": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": statistics.median(loop.jobs_per_cpu_s
                                            for loop in loops),
            "speedup_geomean": geometric_mean(ratios),
            "peak_rss_mb": rss,
        },
        "extra_metrics": {
            "job_p50_s": (statistics.median(step.quantile(0.5)
                                            for step in references), "s"),
            "job_p90_s": (statistics.median(step.quantile(0.9)
                                            for step in references), "s"),
            "knee_jobs_per_s": (knee, "jobs/s"),
            "closed_loop_jobs_per_wall_s": (
                statistics.median(loop.rate for loop in loops), "jobs/s"),
            "failed_ratio": (failed / attempted, "ratio")},
        "counts": {name: " + ".join(str(len(step.latencies))
                                    for step in references)
                   for name in ("job_p50_s", "job_p90_s")},
        "lines": lines,
    }
    if tracer is not None:
        snapshots.append(tracer.snapshot("benchmark"))
        result["layers"] = {"snapshots": snapshots, "steps": steps,
                            "health": health,
                            "swaps_total": sum(
                                json.loads(next(iter(seen)))["summary"]["swaps"]
                                for _job, seen, _count in served.values())}
    return result


def _gateway_health(url: str) -> dict:
    from repro.server.client import CompileClient

    return CompileClient(url, retries=2).health()
