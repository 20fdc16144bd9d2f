"""Design-space exploration over clock periods with reused probe results.

The DSE layer answers "what is the fastest clock this design schedules
at?" (and, more generally, "what latency/register trade-offs exist across
clock periods?") by treating one (design, clock period) schedule as a
black-box probe and searching over periods.  The perf heart is the
warm-start engine (:mod:`repro.dse.warm`): across clock points of one
design the delay matrix is *identical* -- only the combinational budget
moves -- so each design keeps one
:class:`~repro.sdc.problem.ScheduleProblem` that every probe rebuilds cold
at its budget, and a probe whose timing rows equal an earlier solve's
reuses that schedule without an LP call.

Modules:

* :mod:`repro.dse.warm` -- per-design :class:`ProblemCache` (context build,
  fingerprint memoization, same-plateau reuse) and
  :class:`ProbeOutcome`.
* :mod:`repro.dse.optimizer` -- the :class:`Optimizer` protocol
  (``next_batch`` / ``process_outcome`` / ``done`` / ``best``) with
  :class:`MinClockOptimizer` (bracketing + batch-speculative bisection)
  and :class:`ParetoOptimizer` (latency vs. register-count front).
* :mod:`repro.dse.search` -- the batched driver threading probes through a
  process pool with per-worker caches.
* :mod:`repro.dse.cli` -- the ``runner dse`` subcommand.
"""

from repro.dse.optimizer import (
    BestPoint,
    MinClockOptimizer,
    Optimizer,
    ParetoOptimizer,
    ParetoPoint,
)
from repro.dse.search import DesignSearchResult, DseResult, run_dse
from repro.dse.warm import DesignContext, ProbeOutcome, ProblemCache

__all__ = [
    "BestPoint",
    "DesignContext",
    "DesignSearchResult",
    "DseResult",
    "MinClockOptimizer",
    "Optimizer",
    "ParetoOptimizer",
    "ParetoPoint",
    "ProbeOutcome",
    "ProblemCache",
    "run_dse",
]
