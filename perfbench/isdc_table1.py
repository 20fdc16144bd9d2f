"""Workload ``isdc-table1``: the paper's ISDC loop at Table-I settings.

One caller schedules each design in turn (a closed loop): six Table-I rows
plus four seeded ``gen:`` designs, each with a fresh
:class:`~repro.isdc.scheduler.IsdcScheduler` configured as
``run_table1_case(case, 16, 15)`` does (m=16, at most 15 iterations, local
synthesis backend, characterised delays, one job, no estimation-error
tracking).  Gate-level synthesis inside the feedback step does most of the
work; the SDC build and LP re-solve are the rest.
"""

from __future__ import annotations

import random

from common import (Measurement, Op, OpTimer, SpeedMeter,
                    dependency_violations, measure_closed_loop)
from repro.designs.generator import GeneratorParams, generated_case
from repro.designs.suite import suite_by_name
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.tech.sky130 import sky130_library

#: The Table-I rows: the ``table1 --quick`` set, the row with the largest
#: post-synthesis stage blocks, and the largest graph.
TABLE1_ROWS = ("ML-core datapath1", "rrot", "binary divide", "crc32",
               "hsv2rgb", "sha256")
GENERATED = 4
SMOKE_ROWS = ("crc32",)


class IsdcTable1:
    """Runs passes of the ISDC loop over the workload's designs."""

    name = "isdc-table1"
    min_passes = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rows = SMOKE_ROWS if smoke else TABLE1_ROWS
        rng = random.Random(seed)
        seeds = rng.sample(range(1_000_000), 0 if smoke else GENERATED)
        self.cases = ([suite_by_name(row) for row in rows]
                      + [generated_case(GeneratorParams(seed=s, depth=8,
                                                        width=6, fanout=2))
                         for s in seeds])
        self.table1 = set(rows)
        self.meter = SpeedMeter()
        # Library tables: the same shared SKY130 characterisation every
        # CLI invocation builds before its first schedule.
        sky130_library()

    def setup_only(self, announce) -> None:
        """Set-up is the constructor; nothing outlives a pass."""
        announce()

    def close(self) -> None:
        """Nothing outlives a pass (schedulers are per design)."""

    def measure(self, seconds: float, tracer, trace: bool) -> Measurement:
        return measure_closed_loop(self, seconds, tracer, trace)

    def run_pass(self) -> list[Op]:
        """Schedule every design once, each on fresh schedulers."""
        return [self.run_op(case) for case in self.cases]

    def run_op(self, case) -> Op:
        """One design through the ISDC loop, timed and checked."""
        op = Op(case.name)
        try:
            with OpTimer(op, self.meter):
                graph = case.build()
                config = IsdcConfig(
                    clock_period_ps=case.clock_period_ps,
                    subgraphs_per_iteration=16, max_iterations=15,
                    track_estimation_error=False)
                scheduler = IsdcScheduler(config)
                result = scheduler.schedule(graph)
        except Exception as error:  # a failed op, reported in its row
            op.error = f"{type(error).__name__}: {error}"
            op.row = {"design": case.name, "failure": op.error}
            return op
        op.problems = check_result(graph, result)
        stats = scheduler.feedback.cache.stats
        op.row = {
            "design": case.name,
            "sdc_registers": result.initial_report.num_registers,
            "registers": result.final_report.num_registers,
            "stages": result.final_report.num_stages,
            "slack_ps": result.final_report.slack_ps,
            "iterations": result.iterations,
            "cache_hits": stats.hits,
            "cache_lookups": stats.total,
            "failure": "; ".join(op.problems),
        }
        return op

    @staticmethod
    def deterministic(ops: list[Op]) -> list:
        """What must repeat exactly from pass to pass (no timings)."""
        return [(op.name, op.error, sorted(op.row.items())) for op in ops]

    def layer_metrics(self, ops: list[Op]) -> dict:
        """Per-layer values read from one pass's results."""
        done = [op for op in ops if not op.failed]
        lookups = sum(op.row["cache_lookups"] for op in done)
        return {
            "isdc.registers": sum(op.row["registers"] for op in done
                                  if op.name in self.table1),
            "isdc.iterations": sum(op.row["iterations"] for op in done),
            "synth.cache_hit_ratio": (sum(op.row["cache_hits"] for op in done)
                                      / lookups if lookups else 0.0),
        }

    @staticmethod
    def table(ops: list[Op]) -> tuple[list[str], list[list]]:
        """Table-I style per-design rows of one pass."""
        headers = ["design", "wall_s", "cpu_s", "speed", "sdc_regs",
                   "isdc_regs", "stages", "slack_ps", "iters", "failure"]
        rows = []
        for op in ops:
            row = op.row
            if op.error:
                rows.append([op.name[:40], f"{op.seconds:.3f}",
                             f"{op.cpu_seconds:.3f}", f"{op.speed:.3f}", "-",
                             "-", "-", "-", "-", op.error[:90]])
                continue
            rows.append([op.name[:40], f"{op.seconds:.3f}",
                         f"{op.cpu_seconds:.3f}", f"{op.speed:.3f}",
                         row["sdc_registers"], row["registers"], row["stages"],
                         f"{row['slack_ps']:.1f}", row["iterations"],
                         row["failure"] or "-"])
        return headers, rows


def check_result(graph, result) -> list[str]:
    """Output checks of one ISDC run, made from outside the scheduler.

    The final schedule must respect every IR dependency edge, its
    post-synthesis slack must be non-negative, and ISDC must not use more
    registers than the SDC baseline it started from.
    """
    problems = dependency_violations(graph, result.final_schedule.stages)
    if result.final_report.slack_ps < 0:
        problems.append(
            f"negative slack {result.final_report.slack_ps:.1f} ps")
    if result.final_report.num_registers > result.initial_report.num_registers:
        problems.append(
            f"registers grew {result.initial_report.num_registers} -> "
            f"{result.final_report.num_registers}")
    return problems
