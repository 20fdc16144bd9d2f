"""Workload ``serve-replay``: open-loop ``schedule`` traffic to the service.

An in-process :class:`~repro.service.daemon.SchedulingService` with one
pool worker and an artifact-store file receives ``schedule`` requests on
a seeded Poisson arrival schedule.  Requests are drawn over seeded
``gen:`` designs of the quick-campaign shape times a clock ladder: most
re-ask a question already asked (warm hits), a small fixed share asks a
new one (cold misses through the queue, batcher, pool and store), and
some of those arrive as duplicate bursts (coalesced).  Every request is
timed from the moment it was due, so a stalled generator or event loop
shows up in the latency of the requests behind it.

A run replays the schedule at :data:`FIXED_RATE` three times, each time
on a fresh service, store and worker (the state a freshly started daemon
has).  Then it replays the schedule at each rate of :data:`SWEEP_RATES`
and reports the highest offered rate whose p99
(or backlog drain time, if longer) stays within :data:`P99_LIMIT_S`,
interpolated between the closest rates that did and did not meet it.
Every served result is compared byte for byte with
:func:`repro.service.worker.reference_result`, computed after the timed
phases.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (Measurement, Op, SpeedMeter, digest_of, format_rows,
                    geomean, median, peak_rss_mb, percentile)
from repro.designs.generator import GeneratorParams
from repro.dse.search import reset_worker_caches
from repro.parallel import close_shared_pool, shared_pool
from repro.service.daemon import SchedulingService, ServiceConfig
from repro.service.protocol import normalize, parse_request
from repro.service.worker import reference_result
from repro.store import canonical_json
from repro.tech.sky130 import sky130_library

#: Offered rate of the three fixed-rate passes, requests per second.
FIXED_RATE = 400.0
#: Latency limit on p99 that the rate sweep must meet, seconds.
P99_LIMIT_S = 0.1
#: One arrival in this many asks a question not asked before in the pass.
COLD_EVERY = 50
#: Share of those new questions that arrive as a burst of identical copies.
BURST_SHARE = 0.3
BURST_COPIES = 3
#: Clock multipliers applied to each design's 2500 ps registry clock.
CLOCK_LADDER = (0.85, 1.0, 1.2, 1.5)
DESIGNS = 150
SMOKE_DESIGNS = 4
#: Offered rates of the sweep, requests per second (a x1.5 ladder).
SWEEP_RATES = tuple(1000.0 * 1.5 ** step for step in range(8))
#: Geometric bisections between the last rate that met the limit and the
#: first that missed it.
REFINE_STEPS = 2
#: Requests awaiting an answer beyond which a phase stops sending.
MAX_IN_FLIGHT = 2000
#: The generator sleeps until this long before a request is due, then
#: yields to the event loop until it is, so requests leave on time
#: instead of on the event loop's millisecond timer ticks.
SPIN_S = 0.0015
#: Before each phase the machine must be quiet: 1 ms sleeps, for
#: QUIET_PROBE_S, may overrun by at most QUIET_P99_S at p99.  A shared VM
#: has spells of millisecond scheduling stalls that would otherwise set
#: p99; a run waits at most QUIET_BUDGET_S in total for them to pass, then
#: measures anyway.
QUIET_PROBE_S = 0.2
QUIET_P99_S = 0.0005
QUIET_BUDGET_S = 6.0


@dataclass
class PhaseResult:
    """One replay of an arrival schedule against a fresh service."""

    rate: float
    requests: list[dict]
    responses: list[dict] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    drain_s: float = 0.0
    speed: float = 1.0
    stats: dict = field(default_factory=dict)

    def limit_statistic(self) -> float:
        """Speed-corrected p99, or backlog drain time if that is longer.

        A request that failed or was refused counts as missing the limit.
        """
        if any(not response.get("ok") for response in self.responses):
            return float("inf")
        return max(percentile(self.latencies_s, 0.99),
                   self.drain_s) * self.speed


class ServeReplay:
    """Replays seeded request schedules against fresh service instances."""

    name = "serve-replay"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        rng = random.Random(seed)
        count = SMOKE_DESIGNS if smoke else DESIGNS
        designs = [GeneratorParams(seed=s, depth=5, width=3).name
                   for s in rng.sample(range(1_000_000), count)]
        self.questions = [(design, round(2500.0 * scale, 3))
                          for design in designs for scale in CLOCK_LADDER]
        rng.shuffle(self.questions)
        sky130_library()
        root = Path(__file__).resolve().parent.parent
        scratch = root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        self._stores = 0
        self._defaults = ServiceConfig()
        self.service = None
        self._fresh = False
        self.pool_s = 0.0
        self.meter = SpeedMeter()
        self.quiet_wait_s = 0.0

    # ------------------------------------------------------------ lifecycle

    def setup_only(self, announce) -> None:
        """Set up as a measured run does, call ``announce``, tear down."""
        async def run() -> None:
            await self.start()
            announce()
            await self.stop()
        asyncio.run(run())

    async def start(self) -> None:
        """A fresh service: cleared caches, new store, newly forked worker.

        Sets :attr:`pool_s` to the time the worker took to fork and answer.
        """
        await self.stop()
        reset_worker_caches()
        self._stores += 1
        config = ServiceConfig(
            jobs=1, store_path=str(self._tmp / f"store{self._stores}.jsonl"))
        self.service = SchedulingService(config)
        await self.service.start()
        started = time.perf_counter()
        executor = shared_pool(1).executor()
        await asyncio.get_running_loop().run_in_executor(executor, os.getpid)
        self.pool_s = time.perf_counter() - started
        self._fresh = True

    async def stop(self) -> None:
        """Stop the service and join its worker process."""
        if self.service is not None:
            await self.service.stop()
            self.service = None
        close_shared_pool()

    def close(self) -> None:
        """Remove the run's store files."""
        close_shared_pool()
        shutil.rmtree(self._tmp, ignore_errors=True)

    # ------------------------------------------------------------ workload

    def arrivals(self, rate: float, duration_s: float) -> list[tuple]:
        """Seeded ``(due offset, request)`` pairs for one pass at ``rate``.

        The same rate and duration always give the same schedule, so two
        passes ask exactly the same questions in the same order.
        """
        rng = random.Random(f"{self.seed}:{rate}:{duration_s}")
        fresh = iter(self.questions)
        asked: list[tuple[str, float]] = []
        schedule: list[tuple] = []
        offset = 0.0
        draws = 0
        cold_at = 0
        while True:
            offset += rng.expovariate(rate)
            if offset >= duration_s:
                return schedule
            if draws % COLD_EVERY == 0:
                # One new question per block of draws, at a seeded place
                # in the block: the share is exact and cold misses do not
                # cluster by chance, which would make p99 a lottery.
                cold_at = draws + rng.randrange(COLD_EVERY)
            copies = 1
            question = None
            if not asked or draws == cold_at:
                question = next(fresh, None)
                if question is not None:
                    asked.append(question)
                    if rng.random() < BURST_SHARE:
                        copies = BURST_COPIES
            if question is None:
                question = asked[rng.randrange(len(asked))]
            draws += 1
            for _ in range(copies):
                schedule.append((offset, {
                    "kind": "schedule", "design": question[0],
                    "clock_period_ps": question[1],
                    "id": f"r{len(schedule)}"}))

    def wait_for_quiet(self) -> None:
        """Block until a probe finds the machine quiet, within the budget.

        Runs between phases, with nothing in flight, so blocking the event
        loop holds nothing up.  The probe sleeps in this thread and never
        touches the service.
        """
        while self.quiet_wait_s < QUIET_BUDGET_S:
            started = time.perf_counter()
            overruns = []
            while time.perf_counter() - started < QUIET_PROBE_S:
                asleep = time.perf_counter()
                time.sleep(0.001)
                overruns.append(time.perf_counter() - asleep - 0.001)
            if percentile(overruns, 0.99) <= QUIET_P99_S:
                return
            self.quiet_wait_s += time.perf_counter() - started

    async def replay(self, rate: float, duration_s: float) -> PhaseResult:
        """Send one schedule open-loop; time each request from its due time."""
        if not self._fresh:
            await self.start()
        self._fresh = False
        service = self.service
        schedule = self.arrivals(rate, duration_s)
        phase = PhaseResult(rate=rate,
                            requests=[request for _, request in schedule])
        latencies = [0.0] * len(schedule)
        unsent = {"ok": False, "error": "unsent",
                  "message": f"backlog passed {MAX_IN_FLIGHT} requests"}
        responses: list[dict] = [unsent] * len(schedule)
        in_flight: set[asyncio.Task] = set()

        async def send(index: int, request: dict, due: float) -> None:
            responses[index] = await service.handle(request)
            latencies[index] = time.perf_counter() - due

        def finished(task: asyncio.Task) -> None:
            in_flight.discard(task)
            task.result()

        self.wait_for_quiet()
        # Start every phase from the same collector state, so a full
        # collection of the benchmark's own earlier allocations does not
        # land inside one phase and not another.
        gc.collect()
        mark = self.meter.mark()
        base = time.perf_counter() + 0.005
        for index, (offset, request) in enumerate(schedule):
            if len(in_flight) > MAX_IN_FLIGHT:
                break  # an overload this deep only grows; stop feeding it
            due = base + offset
            wait = due - time.perf_counter()
            if wait > SPIN_S:
                await asyncio.sleep(wait - SPIN_S)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            phase.lateness_s.append(time.perf_counter() - due)
            task = asyncio.create_task(send(index, request, due))
            in_flight.add(task)
            task.add_done_callback(finished)
        if in_flight:
            await asyncio.wait(set(in_flight))
        phase.responses = responses
        phase.drain_s = max(0.0, time.perf_counter() - (base + schedule[-1][0])
                            if schedule else 0.0)
        phase.latencies_s = latencies
        phase.speed = self.meter.factor(mark)
        stats = await service.handle({"kind": "stats"})
        phase.stats = stats["result"]
        await self.stop()
        return phase

    @staticmethod
    def max_rate(phases: list[PhaseResult]) -> float:
        """Highest offered rate meeting the limit, from rate-sorted phases.

        Rates and latencies are speed-corrected.  Between the last phase
        that met the limit and the first that did not, the limit
        statistic is interpolated linearly in log-log space.  If every
        phase met it, the highest rate tried is reported.
        """
        met = None
        for phase in phases:
            statistic = phase.limit_statistic()
            if statistic <= P99_LIMIT_S:
                met = phase
                continue
            if met is None:
                return 0.0
            low_rate = met.rate / met.speed
            high_rate = phase.rate / phase.speed
            low = math.log(max(met.limit_statistic(), 1e-6))
            high = (math.log(statistic) if math.isfinite(statistic)
                    else low + 10)
            share = (math.log(P99_LIMIT_S) - low) / (high - low)
            return low_rate * (high_rate / low_rate) ** share
        return met.rate / met.speed if met is not None else 0.0

    # ------------------------------------------------------------ measuring

    def measure(self, seconds: float, tracer, trace: bool) -> Measurement:
        with self.meter:
            return asyncio.run(self._measure(seconds, tracer, trace))

    async def _measure(self, seconds: float, tracer, trace: bool
                       ) -> Measurement:
        await self.start()
        pool_s = self.pool_s
        fixed_s = seconds * 0.14
        phase_s = seconds * 0.08
        # Three fixed-rate passes (the middle one traced when tracing), and
        # the peak RSS of serving at that rate; then the sweep climbs the
        # rate ladder to the first missed limit and bisects below it to
        # narrow the interpolation.  Overload phases hold far more requests
        # in memory, so they are kept out of the RSS figure.
        fixed: list[PhaseResult] = []
        swept: list[PhaseResult] = []
        async def fixed_pass() -> None:
            tracer.enabled = trace and len(fixed) == 1
            try:
                fixed.append(await self.replay(FIXED_RATE, fixed_s))
            finally:
                tracer.enabled = False

        for _ in range(3):
            await fixed_pass()
        serving_rss_mb = peak_rss_mb()
        for rate in SWEEP_RATES:
            swept.append(await self.replay(rate, phase_s))
            if swept[-1].limit_statistic() > P99_LIMIT_S:
                break
        if swept and swept[-1].limit_statistic() > P99_LIMIT_S:
            low = swept[-2].rate if len(swept) > 1 else FIXED_RATE
            high = swept[-1].rate
            for _ in range(REFINE_STEPS):
                middle = await self.replay((low * high) ** 0.5, phase_s)
                swept.append(middle)
                if middle.limit_statistic() > P99_LIMIT_S:
                    high = middle.rate
                else:
                    low = middle.rate
        max_rps = self.max_rate(sorted(fixed[:1] + swept,
                                       key=lambda phase: phase.rate))
        problems = self.check_counts(fixed)
        mismatches = self.check_results(fixed + swept)
        problems.extend(mismatches[:5])

        ops = []
        for phase in fixed:
            for request, response, latency in zip(
                    phase.requests, phase.responses, phase.latencies_s):
                op = Op(request["id"], seconds=latency)
                if not response.get("ok"):
                    op.error = (f"{response.get('error')}: "
                                f"{response.get('message')}")
                elif response.get("mismatch"):
                    op.problems = ["served result differs from reference"]
                ops.append(op)
        per_pass = [[latency * phase.speed for latency, response in zip(
            phase.latencies_s, phase.responses) if response.get("ok")
            and not response.get("mismatch")] for phase in fixed]
        served = [(response.get("served"), latency)
                  for phase in fixed
                  for response, latency in zip(phase.responses,
                                               phase.latencies_s)
                  if response.get("ok")]
        metrics = {
            "op_s": median([geomean(values) for values in per_pass]),
            "p50_ms": median([median(values) for values in per_pass]) * 1e3,
            "p99_ms": median([percentile(values, 0.99)
                              for values in per_pass]) * 1e3,
            "max_rps": max_rps,
            "peak_rss_mb": serving_rss_mb,
        }
        layers = {
            "service.warm_p50_ms": median([latency for kind, latency in served
                                           if kind == "warm"]) * 1e3,
            "service.cold_p50_ms": median([latency for kind, latency in served
                                           if kind == "cold"]) * 1e3,
            "service.late_p99_ms": percentile(
                [late for phase in fixed for late in phase.lateness_s],
                0.99) * 1e3,
            "setup.pool_s": pool_s,
        }
        for name, key in (("warm_hits", "warm_hits"),
                          ("coalesced", "coalesced"), ("cold", "cold_done"),
                          ("batches", "batches"), ("rejected", "rejected")):
            layers[f"service.{name}"] = sum(phase.stats[key]
                                            for phase in fixed) / len(fixed)
        batches = sum(phase.stats["batches"] for phase in fixed)
        layers["service.mean_batch"] = (
            sum(phase.stats["batch_items"] for phase in fixed) / batches
            if batches else 0.0)

        rows = ([[f"fixed {index + 1}"
                  + (" (traced)" if trace and index == 1 else ""),
                  *self._phase_row(phase)]
                 for index, phase in enumerate(fixed)]
                + [[f"sweep {index + 1}", *self._phase_row(phase)]
                   for index, phase in enumerate(swept)])
        headers = ["phase", "rate", "requests", "speed", "p50_ms", "p99_ms",
                   "late_p99_ms", "drain_ms", "warm", "coalesced", "cold",
                   "meets_limit"]
        table = (f"serve-replay phases (p99 limit {P99_LIMIT_S * 1e3:.0f} ms, "
                 f"max_rps {max_rps:.1f}, waited "
                 f"{self.quiet_wait_s:.1f} s for a quiet machine)\n"
                 + format_rows(headers, rows))
        deterministic = [(phase.stats["cold_done"], len(phase.requests))
                         for phase in fixed]
        return Measurement(
            ops=ops, metrics=metrics, layers=layers, problems=problems,
            tables=[table], digest=digest_of(deterministic),
            traced_s=fixed_s if trace else 0.0, traced_passes=int(trace),
            overhead=(median(per_pass[1])
                      / median([median(per_pass[0]), median(per_pass[2])])
                      if trace else 0.0))

    @staticmethod
    def _phase_row(phase: PhaseResult) -> list:
        stats = phase.stats
        return [f"{phase.rate:.1f}", len(phase.requests), f"{phase.speed:.3f}",
                f"{median(phase.latencies_s) * 1e3:.3f}",
                f"{percentile(phase.latencies_s, 0.99) * 1e3:.3f}",
                f"{percentile(phase.lateness_s, 0.99) * 1e3:.3f}",
                f"{phase.drain_s * 1e3:.3f}", stats["warm_hits"],
                stats["coalesced"], stats["cold_done"],
                phase.limit_statistic() <= P99_LIMIT_S]

    @staticmethod
    def check_counts(fixed: list[PhaseResult]) -> list[str]:
        """Each question is computed once, and every pass computes as many.

        A pass computes exactly its distinct questions cold (duplicates
        coalesce or hit the warm cache), and every request is answered by
        exactly one of the three layers.
        """
        problems = []
        for index, phase in enumerate(fixed):
            stats = phase.stats
            distinct = len({(request["design"], request["clock_period_ps"])
                            for request in phase.requests})
            if stats["cold_done"] != distinct:
                problems.append(f"fixed pass {index + 1} computed "
                                f"{stats['cold_done']} questions cold, "
                                f"expected {distinct}")
            answered = (stats["warm_hits"] + stats["coalesced"]
                        + stats["cold_submitted"])
            if answered != len(phase.requests):
                problems.append(f"fixed pass {index + 1} answered {answered} "
                                f"of {len(phase.requests)} requests")
        colds = {phase.stats["cold_done"] for phase in fixed}
        if len(colds) > 1:
            problems.append(f"service.cold differs between passes: {colds}")
        return problems

    def check_results(self, phases: list[PhaseResult]) -> list[str]:
        """Compare every served result with its offline reference.

        References are computed here, after every timed phase.  A response
        whose result differs is marked ``mismatch`` (a failed op).
        """
        references: dict[str, str] = {}
        rendered: dict[int, str] = {}
        problems = []
        for phase in phases:
            for request, response in zip(phase.requests, phase.responses):
                if not response.get("ok"):
                    continue
                parsed = normalize(
                    parse_request({key: value for key, value in request.items()
                                 if key != "id"}),
                    resolution_ps=self._defaults.resolution_ps,
                    speculate=self._defaults.speculate,
                    max_probes=self._defaults.max_probes,
                    latency_weight=self._defaults.latency_weight,
                    allow_crash=False)
                key = parsed.key()
                if key not in references:
                    references[key] = canonical_json(
                        reference_result(parsed.identity()))
                result = response["result"]
                text = rendered.get(id(result))
                if text is None:
                    text = rendered[id(result)] = canonical_json(result)
                if response.get("key") != key or text != references[key]:
                    response["mismatch"] = True
                    problems.append(f"{request['id']} at {phase.rate:.1f} "
                                    "req/s: served result differs from "
                                    "reference_result")
        return problems
