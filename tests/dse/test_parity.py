"""Warm-vs-cold byte parity and determinism of the DSE layer.

The warm-start engine's core contract: a probe served by any warm path
(memo, plateau solution reuse) returns *exactly* the
schedule a from-scratch cold solve returns -- same stages dict, same stage
count, same register count -- at every probed period, in any probe order.
A hypothesis sweep drives randomized clock orders over seeded generated
designs; subprocess tests pin hash-seed independence and ``--jobs``
independence of the deterministic payload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dse.search import deterministic_payload, run_dse
from repro.dse.warm import ProblemCache


def gen_design(seed: int) -> str:
    return (f"gen:seed={seed},depth=5,width=3,fanout=2,bits=8,inputs=3,"
            "clock=2000,mix=add3+xor2+sub1+rotr1")


def assert_probe_parity(warm, cold):
    """The deterministic fields of a warm probe must equal the cold ones."""
    assert warm.feasible == cold.feasible
    assert warm.reason == cold.reason
    assert warm.num_stages == cold.num_stages
    assert warm.num_registers == cold.num_registers
    assert warm.stages == cold.stages  # byte-identical schedule


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_warm_equals_cold_in_any_probe_order(data):
    seed = data.draw(st.integers(min_value=0, max_value=5), label="seed")
    design = gen_design(seed)
    cache = ProblemCache()
    context = cache.context(design)
    low = context.lower_bound_ps * 0.9   # includes budget-infeasible probes
    high = context.default_clock_ps * 1.6
    grid = [round(low + (high - low) * step / 7, 3) for step in range(8)]
    order = data.draw(st.permutations(grid), label="probe order")
    for period in order:
        warm = cache.probe(design, period)
        cold = cache.cold_probe(design, period)
        assert_probe_parity(warm, cold)
    # Re-probing the whole grid is served entirely by the memo -- and still
    # byte-identical.
    for period in grid:
        again = cache.probe(design, period)
        assert again.memo_hit
        assert_probe_parity(again, cache.cold_probe(design, period))


def test_warm_equals_cold_across_real_design_search():
    """End-to-end: every probe of a real min-clock search is cold-identical."""
    cache = ProblemCache()
    from repro.dse.optimizer import MinClockOptimizer
    from repro.dse.search import drive_optimizer

    optimizer = MinClockOptimizer("rrot", 2500.0, resolution_ps=5.0)
    probes = drive_optimizer(
        optimizer,
        lambda batch: [cache.probe("rrot", period) for period in batch],
        width=3)
    assert optimizer.converged
    warm_served = [p for p in probes if p.solution_reuse or p.memo_hit]
    assert warm_served, "search too short to exercise any warm path"
    for probe in probes:
        assert_probe_parity(probe, cache.cold_probe("rrot",
                                                    probe.clock_period_ps))


def test_jobs_do_not_change_the_deterministic_payload():
    """--jobs 1 and --jobs 2 probe identical periods at fixed --speculate."""
    designs = [gen_design(7)]
    kwargs = dict(mode="minclock", speculate=3, resolution_ps=10.0,
                  max_probes=48)
    serial = run_dse(designs, jobs=1, **kwargs)
    parallel = run_dse(designs, jobs=2, **kwargs)
    assert deterministic_payload(serial.to_payload()) \
        == deterministic_payload(parallel.to_payload())


_DSE_SCRIPT = r"""
import json, sys
from repro.dse.search import deterministic_payload, run_dse

design = ("gen:seed=3,depth=5,width=3,fanout=2,bits=8,inputs=3,"
          "clock=2000,mix=add3+xor2+sub1+rotr1")
result = run_dse([design], mode="minclock", jobs=1, speculate=2,
                 resolution_ps=10.0)
json.dump(deterministic_payload(result.to_payload()), sys.stdout,
          sort_keys=True)
"""


def _run_under_seed(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("other_seed", ["31337", "random"])
def test_dse_payload_is_hashseed_independent(other_seed):
    baseline = _run_under_seed(_DSE_SCRIPT, "0")
    payload = json.loads(baseline)
    assert payload["designs"][0]["min_clock_ps"] is not None
    assert _run_under_seed(_DSE_SCRIPT, other_seed) == baseline
