"""Workloads of the benchmark and the process that measures one of them.

Every workload is a closed loop with one caller: it sends a *call* of
:data:`CALL_REQUESTS` consecutive requests (64x64 inputs, Poisson
:data:`ARRIVAL_HZ` virtual arrivals over the 5-application serving mix),
waits for every response, then sends the next call.  A
:class:`~repro.serve.PerforationServer` receives a call through
``submit()``/``drain()`` (what ``run_trace`` does), a
:class:`~repro.fleet.PerforationFleet` through ``serve_trace``.

Workloads (all inputs derive from the seed):

* ``serve-miss`` — one server; every request carries an input it has not
  served before, so the result cache only takes writes and evictions and
  parse, perforation, lowering, launch and the monitoring reference do the
  work.
* ``serve-hit`` — the same server over 2 inputs per application, warmed
  until calls launch nothing; result-cache reads, fingerprinting, the
  scheduler and the controller do the work.  A compile or launch change
  must predict no change here.
* ``fleet-hit`` — a 2-worker fleet over unix sockets on the ``serve-hit``
  mix; request/response wire encoding, sharding and drain round trips do
  the work.  (On the miss mix two CPU-bound workers plus the front-end on
  2 cores were too noisy to gate.)

``BENCHMARK.json`` gates ``serve-miss`` and ``fleet-hit``, which between
them reach every layer; ``serve-hit`` stays runnable by hand.  Three
workloads at the run length ``serve-miss`` needs on a shared 2-core host
do not fit the time all gated runs may take.

A run serves a fixed number of calls, ``seconds * calls_per_s`` (rounded),
so counts, ``no_fallback_frac`` and ``model_speedup`` repeat exactly for a
seed; ``calls_per_s`` was measured on a shared 2-core x86 VM, where a run
lasts about ``seconds``.  That host's speed for interpreted code swings by
up to 1.5x over seconds to minutes, on both vCPUs at once, so
``serve-miss`` (72% of its time in generated kernel code) varies from run
to run far more than ``fleet-hit`` (mostly array copies on the wire).

Run as ``python -m perfbench.workloads '<json params>'`` by ``run.py``,
which gives each process its own cache directories and pinned threads.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.api.engine import PerforationEngine
from repro.data import hotspot_single, single_image
from repro.data.images import ImageClass
from repro.fleet import PerforationFleet
from repro.obs.metrics import MetricsRegistry
from repro.serve import DEFAULT_SERVE_APPS, OnlineController, PerforationServer, ServeRequest

from .ledger import CALL, WAIT, Recorder, WaitTimingPolicy, render_table
from .stats import percentile, tail

#: Requests per call of the closed loop.
CALL_REQUESTS = 40
#: Square input size of every request.
INPUT_SIZE = 64
#: Mean rate of the virtual Poisson arrivals.
ARRIVAL_HZ = 100.0
ERROR_BUDGETS = (0.01, 0.025, 0.05)
PRIORITIES = (0, 0, 0, 1)
BACKEND = "codegen"
MAX_BATCH = 8
#: Distinct inputs per application on the hit workloads.
HIT_POOL = 2
FLEET_WORKERS = 2
#: A hit workload is warm once this many consecutive calls were all hits.
WARM_STEADY_CALLS = 25
WARM_MAX_CALLS = 1000
#: Served (app, config, input) triples re-run on the interpreter per run.
CHECK_SAMPLES = 2
#: The fewest timed calls a run serves, whatever ``seconds`` says.
MIN_CALLS = 3
#: A traced run alternates this many untraced and traced blocks of calls.
TRACE_BLOCKS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    fleet: bool
    #: Every request gets a never-served input (else a pool of HIT_POOL per app).
    fresh_inputs: bool
    #: Calls per second on the reference box; sizes the fixed work of a run.
    calls_per_s: float

    def calls(self, seconds: float) -> int:
        return max(MIN_CALLS, round(seconds * self.calls_per_s))


WORKLOADS: dict[str, Workload] = {
    "serve-miss": Workload("serve-miss", fleet=False, fresh_inputs=True, calls_per_s=1.0),
    "serve-hit": Workload("serve-hit", fleet=False, fresh_inputs=False, calls_per_s=315.0),
    "fleet-hit": Workload("fleet-hit", fleet=True, fresh_inputs=False, calls_per_s=20.0),
}


def make_input(app: str, seed: int, size: int = INPUT_SIZE):
    if app == "hotspot":
        return hotspot_single(size=size, seed=seed)
    return single_image(ImageClass.NATURAL, size=size, seed=seed)


def calibration_inputs(seed: int, size: int = INPUT_SIZE) -> dict:
    """One calibration input per application, distinct from every request's."""
    return {
        app: [make_input(app, seed * 1000 + 500 + index, size)]
        for index, app in enumerate(DEFAULT_SERVE_APPS)
    }


class CallStream:
    """Seeded source of consecutive calls; the virtual clock runs across calls."""

    def __init__(
        self,
        seed: int,
        fresh_inputs: bool,
        size: int = INPUT_SIZE,
        call_requests: int = CALL_REQUESTS,
    ) -> None:
        self.apps = DEFAULT_SERVE_APPS
        self.seed = seed
        self.size = size
        self.call_requests = call_requests
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        self._now_ms = 0.0
        self._pools = None
        if not fresh_inputs:
            self._pools = {
                app: [make_input(app, seed * 1000 + a * 101 + i, size) for i in range(HIT_POOL)]
                for a, app in enumerate(self.apps)
            }

    def next_call(self) -> list:
        """The next call: every app equally often, every (app, budget) pair
        at least twice when the call is large enough, in seeded order — so
        the seed moves arrivals, inputs and order, not the amount of work."""
        rng = self._rng
        per_app = self.call_requests // len(self.apps)
        mix = []
        for app in self.apps:
            budgets = list(ERROR_BUDGETS) * (per_app // len(ERROR_BUDGETS))
            extra = rng.choice(ERROR_BUDGETS, size=per_app - len(budgets))
            mix.extend((app, float(budget)) for budget in [*budgets, *extra])
        extra_apps = rng.choice(len(self.apps), size=self.call_requests - len(mix))
        mix.extend((self.apps[int(a)], float(rng.choice(ERROR_BUDGETS))) for a in extra_apps)
        call = []
        for index in rng.permutation(len(mix)):
            app, budget = mix[int(index)]
            request_id = self._next_id
            self._next_id += 1
            self._now_ms += float(rng.exponential(1000.0 / ARRIVAL_HZ))
            if self._pools is None:
                # Above every pool and calibration seed of any run.
                inputs = make_input(app, (self.seed + 1) * 10_000_000 + request_id, self.size)
            else:
                inputs = self._pools[app][int(rng.integers(HIT_POOL))]
            call.append(
                ServeRequest(
                    request_id=request_id,
                    app=app,
                    inputs=inputs,
                    error_budget=float(budget),
                    arrival_ms=self._now_ms,
                    priority=int(PRIORITIES[int(rng.integers(len(PRIORITIES)))]),
                )
            )
        return call


# ---------------------------------------------------------------------------
# Targets: the system under test behind one "serve a call" interface
# ---------------------------------------------------------------------------
class ServerTarget:
    """One :class:`PerforationServer`; a sample is one request's latency."""

    def __init__(self, calibration: dict) -> None:
        self.server = PerforationServer(
            engine=PerforationEngine(backend=BACKEND),
            backend=BACKEND,
            max_batch=MAX_BATCH,
            calibration_inputs=calibration,
            monitor=True,
            strict=True,
        )
        for app in DEFAULT_SERVE_APPS:
            self.server.controller.ladder(app)
        self.pids = [os.getpid()]

    def serve(self, call: list) -> tuple[list, list[float]]:
        clock = time.perf_counter
        server = self.server
        sent: dict[int, float] = {}
        responses: list = []
        latencies: list[float] = []
        for request in call:
            sent[request.request_id] = clock()
            done = server.submit(request)
            if done:
                now = clock()
                latencies.extend((now - sent[r.request_id]) * 1e3 for r in done)
                responses.extend(done)
        done = server.drain(now_ms=call[-1].arrival_ms)
        now = clock()
        latencies.extend((now - sent[r.request_id]) * 1e3 for r in done)
        responses.extend(done)
        return responses, latencies

    def ladder(self, app: str):
        return self.server.controller.ladder(app)

    def counters(self) -> tuple[dict[str, float], list[float]]:
        """Registry counters and per-worker completed counts."""
        registry = self.server.observability()
        return _counter_values(registry), [float(self.server.metrics.completed)]

    def close(self) -> None:
        self.server.engine.close()


class FleetTarget:
    """A :class:`PerforationFleet`; a sample is one call's duration."""

    def __init__(self, calibration: dict, runtime_dir: str) -> None:
        self.calibration = calibration
        self.fleet = PerforationFleet(
            workers=FLEET_WORKERS,
            backend=BACKEND,
            max_batch=MAX_BATCH,
            calibration_inputs=calibration,
            runtime_dir=runtime_dir,
            monitor=True,
            strict=True,
        )
        start = time.perf_counter()
        self.fleet.start()
        self.start_s = time.perf_counter() - start
        self.pids = [os.getpid()] + [int(r["pid"]) for r in self.fleet.warm_reports]
        self._controller = None

    def serve(self, call: list) -> tuple[list, list[float]]:
        start = time.perf_counter()
        responses = self.fleet.serve_trace(call)
        return responses, [(time.perf_counter() - start) * 1e3]

    def ladder(self, app: str):
        # Workers restore their ladders from the tuning DB the front-end
        # calibrated with these inputs; an in-process calibration is
        # bit-identical to it (pinned by the repo's controller tests).
        if self._controller is None:
            self._controller = OnlineController(
                PerforationEngine(backend=BACKEND), calibration_inputs=self.calibration
            )
        return self._controller.ladder(app)

    def counters(self) -> tuple[dict[str, float], list[float]]:
        registry = MetricsRegistry()
        completed = []
        for snapshot in self.fleet.worker_metrics():
            registry.merge(MetricsRegistry.from_dict(snapshot.get("obs") or {}))
            completed.append(float(snapshot["metrics"]["completed"]))
        return _counter_values(registry), completed

    def close(self) -> None:
        self.fleet.close()


_COUNTERS = (
    "serve.completed",
    "serve.cache_hits",
    "serve.batches",
    "serve.result_cache.hits",
    "serve.result_cache.misses",
    "serve.result_cache.evictions",
    "engine.result_cache.hits",
    "engine.result_cache.misses",
    "codegen.artifact_cache.hits",
    "codegen.artifact_cache.misses",
    "controller.switches",
    "controller.tightened",
    "controller.loosened",
)


def _counter_values(registry) -> dict[str, float]:
    values = {}
    for name in _COUNTERS:
        metric = registry.get(name)
        values[name] = float(metric.value) if metric is not None else 0.0
    return values


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Checking and accounting
# ---------------------------------------------------------------------------
@dataclass
class Tally:
    """Exact accounting of the requests of one phase."""

    attempted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    #: Completed but wrong: over budget, no output, or a bit mismatch.
    incorrect: int = 0
    fallbacks: int = 0
    accounting_errors: int = 0
    #: (app, config label or None for a fallback) -> completed requests.
    served: Counter = field(default_factory=Counter)

    @property
    def bad(self) -> int:
        return self.shed + self.failed + self.incorrect

    @property
    def correct(self) -> bool:
        return self.bad == 0 and self.accounting_errors == 0

    def add(self, call: list, responses: list) -> None:
        by_id = {r.request_id: r for r in responses}
        if len(by_id) != len(responses) or len(responses) != len(call):
            self.accounting_errors += 1
        for request in call:
            self.attempted += 1
            response = by_id.get(request.request_id)
            if response is None:
                self.failed += 1
                self.accounting_errors += 1
                continue
            if response.rejected:
                if response.metadata.get("reason") == "admission-control":
                    self.shed += 1
                else:
                    self.failed += 1
                continue
            self.completed += 1
            if (
                response.output is None
                or response.error is None
                or not response.within_budget
                or response.error > request.error_budget
            ):
                self.incorrect += 1
                continue
            if response.fallback:
                self.fallbacks += 1
                self.served[(request.app, None)] += 1
            else:
                self.served[(request.app, response.config_label)] += 1


def model_speedup(served: Counter, ladder) -> float:
    """Request-weighted geometric mean of the modelled device speedups.

    A fallback served the accurate output, so it counts as speedup 1.
    """
    logs = 0.0
    count = 0
    for (app, label), n in served.items():
        speedup = 1.0
        if label is not None:
            speedup = next(e.speedup for e in ladder(app) if e.config.label == label)
        logs += n * math.log(speedup)
        count += n
    return math.exp(logs / count) if count else 1.0


class Sampler:
    """Seeded choice of served triples to re-run on the interpreter."""

    def __init__(self, seed: int, calls: int) -> None:
        rng = np.random.default_rng([seed, 7])
        picks = rng.choice(calls, size=min(CHECK_SAMPLES, calls), replace=False)
        self.positions = {int(c): int(rng.integers(CALL_REQUESTS)) for c in picks}
        self.kept: list[tuple] = []

    def offer(self, index: int, call: list, responses: list) -> None:
        start = self.positions.get(index)
        if start is None:
            return
        by_id = {r.request_id: r for r in responses}
        for offset in range(len(call)):
            request = call[(start + offset) % len(call)]
            response = by_id.get(request.request_id)
            if response is not None and not response.rejected and not response.fallback:
                self.kept.append((request, response))
                return

    def verify(self, ladder) -> int:
        """Re-run every kept triple on the interpreter; returns mismatches."""
        engine = PerforationEngine(backend="interpreter")
        mismatches = 0
        for request, response in self.kept:
            config = next(
                e.config for e in ladder(request.app) if e.config.label == response.config_label
            )
            expected = engine.run_compiled(request.app, request.inputs, config)
            served = np.asarray(response.output)
            if (
                expected.dtype != served.dtype
                or expected.shape != served.shape
                or expected.tobytes() != served.tobytes()
            ):
                mismatches += 1
        return mismatches


# ---------------------------------------------------------------------------
# One measuring process
# ---------------------------------------------------------------------------
@dataclass
class Phase:
    """What one timed phase of consecutive calls measured."""

    tally: Tally = field(default_factory=Tally)
    wall_s: float = 0.0
    samples: list = field(default_factory=list)
    queue_delays_ms: list = field(default_factory=list)
    worker_service_s: float = 0.0
    calls: int = 0

    @property
    def throughput_rps(self) -> float:
        return self.tally.completed / self.wall_s


def set_up(workload: Workload, seed: int, work_dir: str, size: int = INPUT_SIZE):
    """Build the target and serve one warm-up call.

    Returns ``(target, stream, setup_s, warm-up tally)``; ``setup_s`` runs
    from constructing the server or fleet to the warm-up call's last
    response, input generation excluded.
    """
    stream = CallStream(seed, workload.fresh_inputs, size=size)
    calibration = calibration_inputs(seed, size)
    warm_call = stream.next_call()
    start = time.perf_counter()
    if workload.fleet:
        target = FleetTarget(calibration, os.path.join(work_dir, "fleet"))
    else:
        target = ServerTarget(calibration)
    responses, _ = target.serve(warm_call)
    setup_s = time.perf_counter() - start
    warm = Tally()
    warm.add(warm_call, responses)
    return target, stream, setup_s, warm


def warm_caches(target, stream: CallStream, warm: Tally) -> int:
    """Serve calls until WARM_STEADY_CALLS consecutive calls were all hits."""
    steady = calls = 0
    while steady < WARM_STEADY_CALLS and calls < WARM_MAX_CALLS:
        call = stream.next_call()
        responses, _ = target.serve(call)
        warm.add(call, responses)
        calls += 1
        steady = steady + 1 if all(r.cache_hit for r in responses) else 0
    return calls


def run_phase(target, stream: CallStream, calls: int, phase: Phase, sampler=None, recorder=None):
    """Serve ``calls`` more calls into ``phase``; with ``recorder``, each is traced."""
    for _ in range(calls):
        call = stream.next_call()  # input generation stays outside the clock
        start = time.perf_counter()
        if recorder is None:
            responses, samples = target.serve(call)
        else:
            responses, samples = recorder.timed(CALL, target.serve, call)
        phase.wall_s += time.perf_counter() - start
        phase.samples.extend(samples)
        phase.tally.add(call, responses)
        for response in responses:
            if not response.rejected:
                phase.queue_delays_ms.append(response.queue_delay_ms)
                if response.batch_size:
                    phase.worker_service_s += response.service_time_ms / response.batch_size / 1e3
        if sampler is not None:
            sampler.offer(phase.calls, call, responses)
        phase.calls += 1


def run_traced(target, stream, calls: int, untraced: Phase, sampler, recorder) -> tuple:
    """Alternate untraced and traced blocks of calls, :data:`TRACE_BLOCKS` each.

    Both sides then see the same program state and host phases, so
    ``trace_overhead`` compares like with like.  Returns the traced phase
    and the registry counters summed over its blocks.
    """
    traced = Phase()
    counters: dict[str, float] = {}
    completed: list[float] = []
    for block in range(TRACE_BLOCKS):
        size = calls // TRACE_BLOCKS + (block < calls % TRACE_BLOCKS)
        if not size:
            continue
        run_phase(target, stream, size, untraced, sampler)
        before, before_completed = target.counters()
        recorder.install()
        try:
            run_phase(target, stream, size, traced, recorder=recorder)
        finally:
            recorder.uninstall()
        after, after_completed = target.counters()
        for name in after:
            counters[name] = counters.get(name, 0.0) + after[name] - before[name]
        deltas = [a - b for a, b in zip(after_completed, before_completed)]
        completed = [c + d for c, d in zip(completed, deltas)] if completed else deltas
    return traced, counters, completed


def end_to_end(phase: Phase, target, rss_mb: float) -> tuple[dict, list[str]]:
    tally = phase.tally
    q, tail_ms, beyond = tail(phase.samples)
    sample_kind = "calls" if isinstance(target, FleetTarget) else "requests"
    metrics = {
        "throughput_rps": (phase.throughput_rps, "1/s"),
        "latency_p50_ms": (percentile(phase.samples, 50.0), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - tally.bad / tally.attempted, "ratio"),
        "no_fallback_frac": (1.0 - tally.fallbacks / max(1, tally.completed), "ratio"),
        "model_speedup": (model_speedup(tally.served, target.ladder), "x"),
    }
    notes = [
        f"latency_tail_ms is p{q:g} of {len(phase.samples)} {sample_kind}, "
        f"{beyond} beyond it",
        f"fail_frac {tally.bad / tally.attempted:.6f} (shed {tally.shed}, failed "
        f"{tally.failed}, incorrect {tally.incorrect}, attempted {tally.attempted})",
        f"fallback_frac {tally.fallbacks / max(1, tally.completed):.6f}",
    ]
    return metrics, notes


def per_layer(recorder, phase: Phase, untraced: Phase, counters, completed, target) -> dict:
    """Per-layer metrics of the traced ``phase`` (registry ``counters`` are its deltas)."""

    def ratio(prefix: str) -> float:
        hits = counters[f"{prefix}.hits"]
        lookups = hits + counters[f"{prefix}.misses"]
        return hits / lookups if lookups else 0.0

    launches = recorder.calls("engine.launch")
    batches = counters["serve.batches"]
    service_s = balance = start_s = 0.0
    if isinstance(target, FleetTarget):
        # Worker-side puts are not visible here; every completed miss is put.
        puts = counters["serve.completed"] - counters["serve.cache_hits"]
        service_s = phase.worker_service_s
        balance = min(completed) / max(completed)
        start_s = target.start_s
    else:
        puts = recorder.amounts.get("serve.cache.puts", 0.0)
    return {
        "kernellang.parse.calls": (recorder.calls("kernellang.parse"), "count"),
        "kernellang.parse.self_s": (recorder.self_s("kernellang.parse"), "s"),
        "perforate.calls": (recorder.calls("perforate"), "count"),
        "perforate.self_s": (recorder.self_s("perforate"), "s"),
        "codegen.lower.calls": (recorder.calls("codegen.lower"), "count"),
        "codegen.lower.self_s": (recorder.self_s("codegen.lower"), "s"),
        "codegen.artifact_cache.hit_ratio": (ratio("codegen.artifact_cache"), "ratio"),
        "engine.launch.calls": (launches, "count"),
        "engine.launch.items_per_call": (
            recorder.amounts.get("engine.launch.items", 0.0) / launches if launches else 0.0,
            "count",
        ),
        "engine.launch.self_s": (recorder.self_s("engine.launch"), "s"),
        "engine.reference.calls": (recorder.calls("engine.reference"), "count"),
        "engine.reference.self_s": (recorder.self_s("engine.reference"), "s"),
        "quality.compute_error.self_s": (recorder.self_s("quality.compute_error"), "s"),
        "engine.result_cache.hit_ratio": (ratio("engine.result_cache"), "ratio"),
        "serve.result_cache.hit_ratio": (ratio("serve.result_cache"), "ratio"),
        "serve.result_cache.puts": (puts, "count"),
        "serve.result_cache.evictions": (counters["serve.result_cache.evictions"], "count"),
        "serve.cache.self_s": (recorder.self_s("serve.cache"), "s"),
        "scheduler.batches": (batches, "count"),
        "scheduler.batch_size_mean": (
            counters["serve.completed"] / batches if batches else 0.0, "count"
        ),
        "scheduler.queue_delay_p50_ms": (
            percentile(phase.queue_delays_ms, 50.0) if phase.queue_delays_ms else 0.0, "ms"
        ),
        "scheduler.self_s": (recorder.self_s("scheduler"), "s"),
        "controller.choose.self_s": (recorder.self_s("controller.choose"), "s"),
        "controller.observe.self_s": (recorder.self_s("controller.observe"), "s"),
        "controller.switches": (counters["controller.switches"], "count"),
        "controller.tightened": (counters["controller.tightened"], "count"),
        "controller.loosened": (counters["controller.loosened"], "count"),
        "fleet.encode.calls": (recorder.calls("fleet.encode"), "count"),
        "fleet.encode.bytes": (recorder.amounts.get("fleet.encode.bytes", 0.0), "B"),
        "fleet.encode.self_s": (recorder.self_s("fleet.encode"), "s"),
        "fleet.decode.self_s": (recorder.self_s("fleet.decode"), "s"),
        "fleet.frontend.self_s": (recorder.self_s("fleet.frontend"), "s"),
        "fleet.wait_s": (recorder.self_s(WAIT), "s"),
        "fleet.worker.service_s": (service_s, "s"),
        "fleet.shard_balance": (balance, "ratio"),
        "fleet.start_s": (start_s, "s"),
        "trace_overhead": (phase.throughput_rps / untraced.throughput_rps, "ratio"),
        "unattributed": (recorder.self_s(CALL) / phase.wall_s, "ratio"),
        "ledger.wall_s": (phase.wall_s, "s"),
    }


def measure(params: dict) -> dict:
    """Set up, warm, run the timed phase(s) and check; the whole process's work."""
    workload = WORKLOADS[params["workload"]]
    seed = int(params["seed"])
    size = int(params.get("size", INPUT_SIZE))
    calls = int(params.get("calls") or workload.calls(float(params["seconds"])))
    trace = bool(params["trace"])
    recorder = None
    if trace:
        recorder = Recorder()
        asyncio.set_event_loop_policy(WaitTimingPolicy(recorder))
    target, stream, setup_s, warm = set_up(workload, seed, params["work_dir"], size)
    lines: list[str] = []
    try:
        result: dict = {"setup_s": setup_s}
        if params["mode"] == "setup":
            return result
        warm_calls = 0 if workload.fresh_inputs else warm_caches(target, stream, warm)
        sampler = Sampler(seed, calls)
        phase = Phase()
        traced = None
        if trace:
            traced, counters, completed = run_traced(
                target, stream, calls, phase, sampler, recorder
            )
        else:
            run_phase(target, stream, calls, phase, sampler)
        lines.append(
            f"{workload.name} seed={seed}: {calls} timed calls of {CALL_REQUESTS} requests "
            f"after {warm_calls + 1} warm-up calls"
        )
        tallies = [warm, phase.tally] + ([traced.tally] if traced else [])
        rss_mb = peak_rss_mb(target.pids)
        mismatches = sampler.verify(target.ladder)
        phase.tally.incorrect += mismatches
        if traced is None:
            metrics, notes = end_to_end(phase, target, rss_mb)
            lines.extend(notes)
        else:
            metrics = per_layer(recorder, traced, phase, counters, completed, target)
            lines.extend(render_table(recorder, traced.wall_s))
            if params.get("chrome_trace"):
                path = recorder.write_chrome_trace(params["chrome_trace"])
                lines.append(f"chrome trace: {path} ({len(recorder.spans)} spans)")
        lines.append(
            f"interpreter re-run of {len(sampler.kept)} served triples: "
            f"{mismatches} mismatches"
        )
        result.update(
            metrics=metrics,
            lines=lines,
            correct=all(t.correct for t in tallies),
            attempted=sum(t.attempted for t in tallies[1:]),
            failed=sum(t.bad for t in tallies[1:]),
        )
        return result
    finally:
        target.close()


def main(argv: list[str]) -> int:
    params = json.loads(argv[0])
    result = measure(params)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
