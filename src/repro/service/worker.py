"""Pool-side evaluators of the scheduling service (the cold path).

One module-level entry point, :func:`evaluate_request`, is shipped to the
process-wide persistent pool (:func:`repro.parallel.shared_pool`) with a
plain-dict work spec (:func:`repro.service.protocol.work_item`).  Each
worker process keeps the same module-global
:class:`~repro.dse.warm.ProblemCache` the DSE driver uses
(:func:`repro.dse.search.worker_cache`), so service cold misses
warm-start against everything the worker has already solved -- including
probes evaluated for *other* requests of the same design.

Every result builder returns only deterministic fields: warm-start
provenance and wall-clock never enter a result payload, so the served
answer is byte-identical to the offline reference regardless of which
worker (or which reused plateau) computed it:

* ``schedule`` results equal :meth:`ProblemCache.cold_probe` payloads;
* ``min-clock`` / ``min-ii`` results equal the per-design entries of the
  offline ``runner dse`` payload after
  :func:`~repro.dse.search.deterministic_payload` stripping.
"""

from __future__ import annotations

import os

from repro.dse.search import (NONDETERMINISTIC_KEYS, DesignSearchResult,
                              _design_stats, drive_optimizer, make_optimizer,
                              worker_cache)
from repro.dse.warm import ProbeOutcome, ProblemCache
from repro.service.protocol import (ERROR_BAD_DESIGN, ERROR_BAD_REQUEST)


def schedule_result(outcome: ProbeOutcome) -> dict:
    """The deterministic payload of one schedule request.

    The probe's deterministic row plus the design name and the full
    node -> stage schedule (string keys, sorted, so the JSON form is
    canonical and byte-comparable).
    """
    result = outcome.to_payload()
    result["design"] = outcome.design
    if outcome.stages is not None:
        result["stages"] = {str(node_id): stage
                            for node_id, stage in sorted(outcome.stages.items())}
    return result


def _strip(result: DesignSearchResult) -> dict:
    payload = result.to_payload()
    return {key: value for key, value in payload.items()
            if key not in NONDETERMINISTIC_KEYS}


def min_clock_result(cache: ProblemCache, work: dict) -> dict:
    """One design's full min-clock search, run inside a single worker.

    Mirrors one design iteration of :func:`repro.dse.search.run_dse`
    (same optimizer construction, same fixed ``speculate`` batch width),
    so the stripped payload equals the offline per-design entry.
    """
    context = cache.context(work["design"])
    optimizer = make_optimizer(
        "minclock", work["design"], context.default_clock_ps,
        resolution_ps=work["resolution_ps"], max_stages=work["max_stages"],
        max_probes=work["max_probes"])

    def evaluate(batch: list[float]) -> list[ProbeOutcome]:
        return [cache.probe(work["design"], period) for period in batch]

    probes = drive_optimizer(optimizer, evaluate, width=work["speculate"])
    best = optimizer.best
    return _strip(DesignSearchResult(
        design=work["design"], mode="minclock",
        start_clock_ps=context.default_clock_ps,
        min_clock_ps=best.clock_period_ps if best else None,
        converged=optimizer.converged, probes=probes,
        stats=_design_stats(probes)))


def min_ii_result(cache: ProblemCache, work: dict) -> dict:
    """One design's minimum-II search (sequential by nature, one worker)."""
    context = cache.context(work["design"])
    final, trace = cache.min_ii_search(work["design"],
                                       work["clock_period_ps"])
    period = (work["clock_period_ps"] if work["clock_period_ps"] is not None
              else context.default_clock_ps)
    probes = list(trace)
    return _strip(DesignSearchResult(
        design=work["design"], mode="min-ii", start_clock_ps=float(period),
        min_clock_ps=None, min_ii=final.ii if final.feasible else None,
        converged=final.feasible, probes=probes,
        stats=_design_stats(probes)))


def evaluate_request(work: dict) -> dict:
    """Pool entry point: evaluate one work spec, never raising.

    Returns ``{"result": <deterministic payload>}`` on success or a
    controlled ``{"error": <code>, "message": ...}`` for questions that
    cannot be answered (an unresolvable design name).  Unexpected
    exceptions propagate -- the daemon maps them to ``internal`` errors
    without caching.
    """
    if work.get("crash"):  # fault injection: die like a real worker crash
        os._exit(13)
    cache = worker_cache(work["latency_weight"])
    kind = work["kind"]
    try:
        if kind == "schedule":
            outcome = cache.probe(work["design"], work["clock_period_ps"])
            return {"result": schedule_result(outcome)}
        if kind == "min-clock":
            return {"result": min_clock_result(cache, work)}
        if kind == "min-ii":
            return {"result": min_ii_result(cache, work)}
    except (KeyError, ValueError, OSError) as error:
        # Design resolution failures (unknown registry name, malformed
        # gen:/loop: spec, missing .ir file) are the caller's fault.
        return {"error": ERROR_BAD_DESIGN,
                "message": f"{type(error).__name__}: {error}"}
    return {"error": ERROR_BAD_REQUEST, "message": f"unknown kind {kind!r}"}


def reference_result(request_identity: dict) -> dict:
    """The offline reference answer for one request identity (no service).

    Evaluates the same work spec on a *fresh* cache in this process --
    the parity baseline the determinism tests and the benchmark's
    ``--check`` compare served results against.  ``schedule`` requests
    additionally bypass every warm path via
    :meth:`~repro.dse.warm.ProblemCache.cold_probe`.
    """
    work = dict(request_identity)
    work["crash"] = False
    cache = ProblemCache(latency_weight=work["latency_weight"])
    if work["kind"] == "schedule":
        outcome = cache.cold_probe(work["design"], work["clock_period_ps"])
        return schedule_result(outcome)
    if work["kind"] == "min-clock":
        return min_clock_result(cache, work)
    if work["kind"] == "min-ii":
        return min_ii_result(cache, work)
    raise ValueError(f"unknown kind {work['kind']!r}")


__all__ = ["evaluate_request", "min_clock_result", "min_ii_result",
           "reference_result", "schedule_result"]
