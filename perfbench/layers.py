"""Which library functions the traced run wraps, and the metrics they give.

Each entry of :data:`SITES` names one public function at the attribute
its callers look it up through, the layer span it records, and the
workloads that must reach it.  :func:`install` wraps them all; after a
traced run, :func:`unfired_sites` lists every expected site that never
fired (a renamed function would otherwise drop its layer silently) and
:func:`span_metrics` turns the recorded spans into per-layer numbers.
"""

from __future__ import annotations

import importlib

from spans import Tracer

ISDC = "isdc-table1"
DSE = "dse-minclock"
SERVE = "serve-replay"


def _count_gates_in(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    netlist = args[1] if len(args) > 1 else kwargs["netlist"]
    tracer.counters["netlist.gates_in"] += netlist.num_logic_gates()


def _count_gates_out(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["netlist.gates_out"] += result[0].num_logic_gates()


def _count_subgraphs(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["isdc.subgraphs"] += len(result)


#: (module, class or None, attribute, span name, workloads that reach it,
#: before hook, after hook).
SITES = (
    # Synthesis substrate (the ISDC feedback flow and the stage reports).
    ("repro.synth.flow", None, "lower_subgraph", "netlist.lower", {ISDC},
     None, None),
    ("repro.netlist.optimizer", "LogicOptimizer", "optimize",
     "netlist.optimize", {ISDC}, _count_gates_in, _count_gates_out),
    ("repro.netlist.sta", "StaticTimingAnalysis", "run", "netlist.sta",
     {ISDC}, None, None),
    ("repro.kernel.view", "GraphView", "__init__", "kernel.view",
     {ISDC, DSE}, None, None),
    ("repro.synth.flow", "SynthesisFlow", "evaluate_subgraph",
     "synth.evaluate", {ISDC}, None, None),
    ("repro.sdc.pipeline", "PipelineAnalyzer", "report", "sdc.report",
     {ISDC}, None, None),
    # SDC layer.
    ("repro.sdc.scheduler", None, "node_delays", "sdc.delays", {ISDC},
     None, None),
    ("repro.dse.warm", None, "node_delays", "sdc.delays", {DSE}, None, None),
    ("repro.sdc.problem", None, "build_system", "sdc.build", {ISDC, DSE},
     None, None),
    ("repro.sdc.solver", None, "assemble_lp", "sdc.assemble", {ISDC},
     None, None),
    ("repro.sdc.problem", None, "assemble_lp", "sdc.assemble", {DSE},
     None, None),
    ("repro.sdc.solver", None, "linprog", "sdc.lp", {ISDC, DSE}, None, None),
    ("repro.sdc.problem", "ScheduleProblem", "rebase_timing", "sdc.rebase",
     {DSE}, None, None),
    ("repro.sdc.scheduler", None, "solve_lp", "sdc.solve", {ISDC},
     None, None),
    ("repro.sdc.solver", None, "solve_lp", "sdc.solve", {ISDC}, None, None),
    ("repro.dse.warm", None, "solve_problem", "sdc.solve", {DSE},
     None, None),
    # ISDC loop.
    ("repro.isdc.extraction", "SubgraphExtractor", "extract", "isdc.extract",
     {ISDC}, None, _count_subgraphs),
    ("repro.isdc.feedback", "FeedbackEngine", "evaluate", "isdc.feedback",
     {ISDC}, None, None),
    ("repro.isdc.scheduler", None, "propagate_delays", "isdc.propagate",
     {ISDC}, None, None),
    # DSE.
    ("repro.dse.warm", "ProblemCache", "probe", "dse.probe", {DSE},
     None, None),
    ("repro.dse.warm", None, "build_context", "dse.context", {DSE},
     None, None),
    # Service (parent-process side) and store.
    ("repro.service.daemon", None, "parse_request", "service.protocol",
     {SERVE}, None, None),
    ("repro.service.daemon", None, "normalize", "service.protocol",
     {SERVE}, None, None),
    ("repro.service.daemon", None, "ok_response", "service.protocol",
     {SERVE}, None, None),
    ("repro.store.store", "ArtifactStore", "put", "store.put", {SERVE},
     None, None),
)

#: Per-layer metrics read from self time: metric name -> span name.
SELF_TIME_METRICS = {
    "netlist.lower_s": "netlist.lower",
    "netlist.optimize_s": "netlist.optimize",
    "netlist.sta_s": "netlist.sta",
    "kernel.view_s": "kernel.view",
    "sdc.report_s": "sdc.report",
    "sdc.delays_s": "sdc.delays",
    "sdc.build_s": "sdc.build",
    "sdc.assemble_s": "sdc.assemble",
    "sdc.lp_s": "sdc.lp",
    "sdc.rebase_s": "sdc.rebase",
    "sdc.solve_s": "sdc.solve",
    "isdc.extract_s": "isdc.extract",
    "isdc.feedback_s": "isdc.feedback",
    "isdc.propagate_s": "isdc.propagate",
    "dse.probe_s": "dse.probe",
    "dse.context_s": "dse.context",
    "store.put_s": "store.put",
}

#: Per-layer call counts: metric name -> span name.
CALL_COUNT_METRICS = {
    "kernel.view_builds": "kernel.view",
    "synth.evaluate_calls": "synth.evaluate",
    "sdc.lp_calls": "sdc.lp",
    "dse.probes": "dse.probe",
    "store.put_calls": "store.put",
}

#: Counters the hooks add up.
HOOK_COUNTERS = ("netlist.gates_in", "netlist.gates_out", "isdc.subgraphs")


def install(tracer: Tracer) -> dict[str, set[str]]:
    """Wrap every site; returns site label -> workloads that must fire it."""
    expected: dict[str, set[str]] = {}
    for module_name, class_name, attribute, span, workloads, before, after \
            in SITES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        site = tracer.wrap(owner, attribute, span, before=before, after=after)
        expected[site] = set(workloads)
    return expected


def unfired_sites(tracer: Tracer, expected: dict[str, set[str]],
                  workload: str) -> list[str]:
    """Sites this workload must reach that recorded no call."""
    return sorted(site for site, workloads in expected.items()
                  if workload in workloads and tracer.fired[site] == 0)


def span_metrics(tracer: Tracer, traced_s: float,
                 passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus ``trace.coverage``.

    Coverage is summed self time over ``traced_s``, the time the traced
    passes ran: the share of it that some layer span accounts for.
    """
    selfs = tracer.self_times()
    metrics = {name: selfs.get(span, 0.0) / passes
               for name, span in SELF_TIME_METRICS.items()}
    metrics.update({name: tracer.span_count(span) / passes
                    for name, span in CALL_COUNT_METRICS.items()})
    metrics.update({name: tracer.counters.get(name, 0.0) / passes
                    for name in HOOK_COUNTERS})
    metrics["trace.coverage"] = (sum(selfs.values()) / traced_s
                                 if traced_s > 0 else 0.0)
    return metrics
