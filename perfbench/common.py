"""Shared pieces of the workloads: op timing, statistics and output checks."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import time
from dataclasses import dataclass, field

#: Median time of one :class:`SpeedMeter` sample on the reference machine
#: (a 2-vCPU Xeon VM) at its usual speed.
REFERENCE_SAMPLE_S = 380e-6


class SpeedMeter:
    """Samples how fast the machine runs while the measured work runs.

    A shared virtual machine changes speed from second to second as other
    tenants come and go, by up to a third on the 2-vCPU VM this was tuned
    on.  While the meter runs, a timer signal every :attr:`interval_s`
    runs one fixed pure-Python loop in the main thread and records how
    long it took.  :meth:`factor` turns the samples taken during an op
    into a speed factor: times multiplied by it read as seconds on that
    machine at its idle speed, so runs made while the machine was faster
    or slower compare.  The loop calls nothing from the library; a
    library change can still move the factor a little by changing how
    warm the caches are when a sample runs, so compare the raw times
    printed beside the corrected ones when claiming a gain.
    """

    interval_s = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for step in range(4000):
            total += step * step
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position to pass to :meth:`factor` when the op ends."""
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Speed factor of the samples since ``mark`` (1.0 with none).

        An op too short to be sampled takes the last few samples before it.
        """
        samples = self.samples[mark:] or self.samples[-5:]
        if not samples:
            return 1.0
        return REFERENCE_SAMPLE_S / median(samples)


@dataclass
class Op:
    """One timed operation and what its output checks found.

    Attributes:
        name: what was run (a design name, or a request id).
        seconds: wall time of the operation.
        cpu_seconds: CPU time of this process during the operation.
        speed: :class:`SpeedMeter` factor while it ran.
        error: the exception it raised, as ``Type: message`` (failed).
        problems: output checks it failed (failed).
        row: the per-design columns printed beside the end-to-end rows.
    """

    name: str
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    speed: float = 1.0
    error: str = ""
    problems: list[str] = field(default_factory=list)
    row: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)

    @property
    def corrected_seconds(self) -> float:
        """Speed-corrected CPU time of a single-threaded op without I/O.

        CPU time is the wall time less what the hypervisor took from this
        virtual CPU; the speed factor removes the rest of the machine's
        drift (see :class:`SpeedMeter`).
        """
        return self.cpu_seconds * self.speed


class OpTimer:
    """Times one op: wall and CPU time, and the speed factor meanwhile."""

    def __init__(self, op: Op, meter: SpeedMeter) -> None:
        self.op = op
        self.meter = meter

    def __enter__(self) -> Op:
        self._mark = self.meter.mark()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self.op

    def __exit__(self, *exc_info) -> None:
        self.op.seconds = time.perf_counter() - self._wall
        self.op.cpu_seconds = time.process_time() - self._cpu
        self.op.speed = self.meter.factor(self._mark)


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty list)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Median (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dependency_violations(graph, stages: dict[int, int]) -> list[str]:
    """IR dependency edges the schedule breaks, read from the graph itself.

    Every node needs a stage, and no node may be scheduled before any of
    its operands (same-stage chaining is allowed).  Back edges of loop
    designs are recurrences, not forward dependencies, and are skipped.
    """
    problems: list[str] = []
    for node in graph.nodes():
        if node.node_id not in stages:
            problems.append(f"node {node.node_id} has no stage")
            continue
        for operand in node.operands:
            if operand not in stages:
                problems.append(f"operand {operand} of {node.node_id} "
                                "has no stage")
            elif stages[operand] > stages[node.node_id]:
                problems.append(
                    f"edge {operand}->{node.node_id} runs backwards "
                    f"(stage {stages[operand]} > {stages[node.node_id]})")
        if len(problems) >= 3:
            break
    return problems


def closed_loop_metrics(passes: list[list[Op]]) -> dict[str, float]:
    """Per-op latency metrics of a closed loop with one caller.

    Each op's time (:attr:`Op.corrected_seconds`) is its median over the
    passes it succeeded in.  ``op_s`` is the geometric mean of those times,
    ``p50_ms`` and ``p99_ms`` are percentiles of them, and ``max_rps`` is
    the ops that succeeded per second of a median pass's corrected busy
    time.
    """
    times: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            if not op.failed:
                times.setdefault(op.name, []).append(op.corrected_seconds)
    per_op = [median(samples) for samples in times.values()]
    done = median([sum(1 for op in ops if not op.failed) for ops in passes])
    busy = median([sum(op.corrected_seconds for op in ops)
                   for ops in passes])
    return {
        "op_s": geomean(per_op),
        "p50_ms": median(per_op) * 1e3,
        "p99_ms": percentile(per_op, 0.99) * 1e3,
        "max_rps": done / busy if busy > 0 else 0.0,
    }


@dataclass
class Measurement:
    """Everything one workload run measured, before it is printed.

    Attributes:
        ops: every counted op (``attempted`` / ``failed`` are read here).
        metrics: end-to-end metrics the workload defines itself.
        layers: per-layer values read from results rather than spans.
        problems: self-check failures (the run is then not correct).
        tables: text blocks printed beside the metrics.
        digest: hash of the values that must repeat run to run.
        traced_s: time the traced passes ran (the ``trace.coverage``
            denominator).
        traced_passes: how many passes were traced.
        overhead: traced over untraced corrected pass time
            (``trace.overhead``).
    """

    ops: list[Op]
    metrics: dict[str, float]
    layers: dict[str, float]
    problems: list[str]
    tables: list[str]
    digest: str
    traced_s: float = 0.0
    traced_passes: int = 0
    overhead: float = 0.0


def digest_of(values) -> str:
    """Short stable hash of JSON-able values."""
    text = json.dumps(values, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure_closed_loop(workload, seconds: float, tracer,
                        trace: bool) -> Measurement:
    """Run passes of a closed-loop workload for about ``seconds``.

    At least ``workload.min_passes`` passes run, each from the cold state
    its ``run_pass`` sets up; another starts only while one more average
    pass still fits.  With ``trace`` every second pass is traced, so the
    untraced passes between them give the overhead baseline.  Passes must
    agree on every deterministic value, or the run is not correct.
    """
    passes: list[list[Op]] = []
    walls: list[float] = []
    plain: list[float] = []
    traced_busy: list[float] = []
    traced_raw = 0.0
    deadline = time.perf_counter() + seconds
    with workload.meter:
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer.enabled = traced
            started = time.perf_counter()
            try:
                ops = workload.run_pass()
            finally:
                tracer.enabled = False
            walls.append(time.perf_counter() - started)
            passes.append(ops)
            (traced_busy if traced else plain).append(
                sum(op.corrected_seconds for op in ops))
            if traced:
                traced_raw += sum(op.seconds for op in ops)
            if (len(passes) >= workload.min_passes
                    and time.perf_counter() + sum(walls) / len(walls)
                    > deadline):
                break

    reference = workload.deterministic(passes[0])
    problems = [f"pass {index + 1} differs from pass 1 in "
                f"{_first_difference(reference, workload.deterministic(ops))}"
                for index, ops in enumerate(passes[1:], start=1)
                if workload.deterministic(ops) != reference]
    tables = []
    for index, ops in enumerate(passes):
        headers, rows = workload.table(ops)
        tables.append(f"pass {index + 1}"
                      + (" (traced)" if trace and index % 2 else "")
                      + "\n" + format_rows(headers, rows))
    all_ops = [op for ops in passes for op in ops]
    return Measurement(ops=all_ops, metrics=closed_loop_metrics(passes),
                       layers=workload.layer_metrics(passes[0]),
                       problems=problems, tables=tables,
                       digest=digest_of(reference),
                       traced_s=traced_raw,
                       traced_passes=len(traced_busy),
                       overhead=(median(traced_busy) / median(plain)
                                 if traced_busy else 0.0))


def _first_difference(expected: list, actual: list) -> str:
    for want, got in zip(expected, actual):
        if want != got:
            return f"{want[0]}: {got}"
    return "the number of ops"


def format_rows(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table."""
    cells = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
             for row in cells]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
