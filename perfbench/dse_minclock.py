"""Workload ``dse-minclock``: minimum-clock searches with warm rebase.

One caller asks :func:`repro.dse.search.run_dse` for each design's minimum
feasible clock (``mode="minclock"``, one job, four periods per batch), a
closed loop over four Table-I rows and two seeded ``gen:`` designs.  Each
pass starts from :func:`~repro.dse.search.reset_worker_caches`, the state
a fresh ``runner dse`` process has.  Constraint build, LP assembly and
HiGHS do the work; nothing is synthesised.
"""

from __future__ import annotations

import random

from common import (Measurement, Op, OpTimer, SpeedMeter,
                    dependency_violations, geomean, measure_closed_loop)
from repro.designs.generator import GeneratorParams, case_from_name
from repro.dse.search import reset_worker_caches, run_dse
from repro.tech.sky130 import sky130_library

TABLE1_ROWS = ("sha256", "crc32", "binary divide", "internal datapath")
GENERATED = 2
SMOKE_ROWS = ("crc32",)


class DseMinClock:
    """Runs passes of min-clock searches over the workload's designs."""

    name = "dse-minclock"
    min_passes = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rows = SMOKE_ROWS if smoke else TABLE1_ROWS
        rng = random.Random(seed)
        self.designs = list(rows) + [
            GeneratorParams(seed=s, depth=16, width=10, fanout=3).name
            for s in rng.sample(range(1_000_000), 0 if smoke else GENERATED)]
        self._graphs: dict[str, object] = {}
        self.meter = SpeedMeter()
        sky130_library()

    def setup_only(self, announce) -> None:
        """Set-up is the constructor; the caches start empty."""
        reset_worker_caches()
        announce()

    def close(self) -> None:
        """Drop the per-process probe caches."""
        reset_worker_caches()

    def measure(self, seconds: float, tracer, trace: bool) -> Measurement:
        return measure_closed_loop(self, seconds, tracer, trace)

    def run_pass(self) -> list[Op]:
        """Search every design once, from cleared worker caches."""
        reset_worker_caches()
        ops = [self._search(design) for design in self.designs]
        for op in ops:
            if op.row.get("probe_stages") is not None:
                op.problems.extend(self._check(op))
            if op.row:
                op.row["failure"] = "; ".join(op.problems)
        return ops

    def _search(self, design: str) -> Op:
        op = Op(design)
        try:
            with OpTimer(op, self.meter):
                result = run_dse([design], mode="minclock", jobs=1,
                                 speculate=4).designs[0]
        except Exception as error:  # a failed op, reported in its row
            op.error = f"{type(error).__name__}: {error}"
            return op
        best = next((probe for probe in result.probes
                     if probe.feasible
                     and probe.clock_period_ps == result.min_clock_ps), None)
        stats = result.stats
        op.row = {
            "design": design,
            "min_clock_ps": result.min_clock_ps,
            "converged": result.converged,
            "probes": len(result.probes),
            "stages": best.num_stages if best else None,
            "registers": best.num_registers if best else None,
            "lp_rebuilds": stats["lp_rebuilds"],
            "warm_solves": stats["warm_solves"],
            "memo_hits": stats["memo_hits"],
            "probe_stages": best.stages if best else None,
            "failure": "",
        }
        if not result.converged or best is None:
            op.problems = [f"converged={result.converged}, no feasible probe "
                           f"at min clock {result.min_clock_ps}"]
        return op

    def _check(self, op: Op) -> list[str]:
        """The min clock's schedule must respect the graph's dependencies."""
        graph = self._graphs.get(op.name)
        if graph is None:
            graph = case_from_name(op.name).build()
            self._graphs[op.name] = graph
        return dependency_violations(graph, op.row["probe_stages"])

    @staticmethod
    def deterministic(ops: list[Op]) -> list:
        return [(op.name, op.error,
                 sorted((key, value) for key, value in op.row.items()
                        if key != "probe_stages"))
                for op in ops]

    def layer_metrics(self, ops: list[Op]) -> dict:
        done = [op for op in ops if not op.failed]
        rebuilds = sum(op.row["lp_rebuilds"] for op in done)
        warm = sum(op.row["warm_solves"] + op.row["memo_hits"] for op in done)
        return {
            "dse.min_clock_ps": geomean([op.row["min_clock_ps"]
                                         for op in done]),
            "dse.lp_rebuilds": rebuilds,
            "dse.patched_solves": sum(op.row["warm_solves"] for op in done),
            "dse.warm_hit_ratio": (warm / (warm + rebuilds)
                                   if warm + rebuilds else 0.0),
        }

    @staticmethod
    def table(ops: list[Op]) -> tuple[list[str], list[list]]:
        headers = ["design", "wall_s", "cpu_s", "speed", "min_clock_ps",
                   "stages", "registers", "probes", "lp_rebuilds", "failure"]
        rows = []
        for op in ops:
            if op.error:
                rows.append([op.name[:40], f"{op.seconds:.3f}",
                             f"{op.cpu_seconds:.3f}", f"{op.speed:.3f}", "-",
                             "-", "-", "-", "-", op.error[:90]])
                continue
            row = op.row
            rows.append([op.name[:40], f"{op.seconds:.3f}",
                         f"{op.cpu_seconds:.3f}", f"{op.speed:.3f}",
                         row["min_clock_ps"], row["stages"], row["registers"],
                         row["probes"], row["lp_rebuilds"],
                         row["failure"] or "-"])
        return headers, rows
